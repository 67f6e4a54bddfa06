"""Deduction rules over architectures and the bounded semantic oracle."""

import random
from pathlib import Path

import pytest

from datactl.architecture import (
    Act1,
    Act2,
    ArchEvent,
    Architecture,
    Delete,
    DeleteReq,
    GroupAct,
    GroupHas,
    KeyVar,
    Own,
    Possess,
    PossessOneOf,
    UnAct1,
    UnGroupHas,
    Universe,
    Var,
    _Kernel,
    enc,
    enumerate_states,
    search_states,
)
from datactl.cli import _concrete_users
from datactl.dsl import parse_architecture, parse_has_query
from datactl.logic import (
    And,
    DeductionResult,
    Has,
    HasNever,
    HasNot,
    HasSp,
    SemanticVerdict,
    _activity_vars,
    conclusions,
    deduce,
    eval_semantic,
    judge,
)
from datactl.mapping import MappingContext, derive_architecture, image_trace
from datactl.model import SP, ActivitySets, Perms

from modelgen import compliant_trace, random_model

X = Var(ow="alice", ds=frozenset({"alice", "bob"}), ident="d1")
USERS = ("alice", "bob", "carol")


def results_for(rule, results):
    return [r for r in results if r.rule == rule]


# --- permitted holders ------------------------------------------------------


def test_holders_reads_by_and_intersects_been_for_a_target():
    perms = Perms(
        by={"link": {"i": frozenset({"x", "y", "z"})}},
        been={"link": {"tar": frozenset({"y", "z", "w"})}},
    )
    assert perms.holders("link", "i") == frozenset({"x", "y", "z"})
    assert perms.holders("link", "i", "tar") == frozenset({"y", "z"})
    assert perms.holders("link", "i", "ghost") == frozenset()
    assert perms.holders("link", "ghost") == frozenset()
    assert perms.holders("fav", "i") == frozenset()


# --- individual rules -------------------------------------------------------

PERMS = Perms(
    can={"fav": frozenset({"bob"}), "link": frozenset({"alice"})},
    by={
        "fav": {"bob": frozenset({"bob", "carol"})},
        "link": {"alice": frozenset({"alice", "bob", "carol"})},
    },
    been={"link": {"bob": frozenset({"bob", "carol"})}},
)

ARCH = Architecture(
    activities=frozenset(
        {
            Own("alice", X),
            Possess(enc(X, KeyVar(SP))),
            Possess(KeyVar(SP)),
            Act1("?i", "fav", X),
            UnAct1("?i", "unfav", X),
            Act2("?i", "?j", "link", X),
            DeleteReq("?i", X),
            Delete(X, dd=3),
        }
    ),
    perms=PERMS,
    sets=ActivitySets(unary=(("fav", "unfav"),), binary=(("link", "unlink"),)),
)


def test_h1_from_own_event():
    trace = [ArchEvent("own", 1, user="alice", term=X, value="v")]
    found = results_for("H1", deduce(ARCH, trace, USERS))
    assert [r.conclusion for r in found] == [Has("alice", X, 1)]


def test_h2_grants_intersection_holders():
    trace = [ArchEvent("act1", 2, user="bob", action="fav", term=X, value="v")]
    found = results_for("H2", deduce(ARCH, trace, USERS))
    # by(bob) = {bob, carol}; owner's grant uses the same shared table
    assert {r.conclusion for r in found} == {Has("bob", X, 2), Has("carol", X, 2)}


def test_h2_silent_for_unpermitted_performer():
    trace = [ArchEvent("act1", 2, user="carol", action="fav", term=X, value="v")]
    assert results_for("H2", deduce(ARCH, trace, USERS)) == []


def test_h3_grants_six_way_intersection():
    trace = [ArchEvent("act2", 2, user="alice", tar="bob", action="link", term=X, value="v")]
    found = results_for("H3", deduce(ARCH, trace, USERS))
    expected = frozenset({"alice", "bob", "carol"}) & frozenset({"bob", "carol"})
    assert {r.conclusion for r in found} == {Has(j, X, 2) for j in expected}


def test_h5_withdraws_after_unact1():
    trace = [ArchEvent("unact1", 3, user="bob", action="unfav", term=X)]
    # the un-action's can-group must permit bob too
    arch = Architecture(
        activities=ARCH.activities,
        perms=Perms(
            can={**PERMS.can, "unfav": frozenset({"bob"})}, by=PERMS.by, been=PERMS.been
        ),
        sets=ARCH.sets,
    )
    found = results_for("H5", deduce(arch, trace, USERS))
    assert {r.conclusion for r in found} == {HasNot("bob", X, 3), HasNot("carol", X, 3)}


def test_h8_via_symbolic_decryption():
    found = results_for("H8", deduce(ARCH, [], USERS))
    assert [r.conclusion for r in found] == [HasSp(X)]

    # without the key, the ciphertext alone yields nothing
    keyless = Architecture(
        activities=frozenset({Own("alice", X), Possess(enc(X, KeyVar(SP)))}),
        perms=Perms(),
    )
    assert results_for("H8", deduce(keyless, [], USERS)) == []


def test_h8_plain_possession():
    # Either activity lets the provider possess X in the clear, which the
    # bounded search confirms.
    for held in (Possess(X), PossessOneOf(frozenset({X, enc(X, KeyVar(SP))}))):
        plain = Architecture(activities=frozenset({held}))
        found = results_for("H8", deduce(plain, [], USERS))
        assert [r.conclusion for r in found] == [HasSp(X)], held
        assert eval_semantic(plain, HasSp(X), Universe(users=USERS), max_len=1).holds, held


def test_h9_for_ungranted_users_only():
    found = results_for("H9", deduce(ARCH, [], USERS))
    never = {r.conclusion.user for r in found}
    # alice owns, bob/carol are reachable through fav/link, sp decrypts
    assert never == {SP} - {SP} or never == set()
    assert never == set()

    # drop the has-grants: only the owner and the provider can ever hold it
    bare = Architecture(
        activities=frozenset({Own("alice", X), Possess(X), Act1("?i", "fav", X)}),
        perms=Perms(can={"fav": frozenset({"bob"})}),
    )
    found = results_for("H9", deduce(bare, [], USERS))
    assert {r.conclusion.user for r in found} == {"bob", "carol"}


def test_h9_respects_runtime_can_extension():
    """A grant activity can admit new performers, so users reachable through it
    must not be declared never-holders."""
    extendable = Architecture(
        activities=frozenset(
            {Own("alice", X), Act1("?i", "fav", X), GroupAct("alice", "?tar", "fav")}
        ),
        perms=Perms(by={"fav": {"bob": frozenset({"carol"})}}),
    )
    found = results_for("H9", deduce(extendable, [], USERS))
    # bob can be granted fav at run time, and fav by bob gives carol the value
    assert "carol" not in {r.conclusion.user for r in found}


def test_h4_h7_never_fire():
    trace = [
        ArchEvent("groupact", 1, user="alice", tar="bob", action="fav"),
        ArchEvent("grouphas", 2, user="alice", tar="bob"),
        ArchEvent("ungrouphas", 3, user="alice", tar="bob"),
    ]
    arch = Architecture(
        activities=ARCH.activities
        | frozenset({GroupAct("?i", "?tar", "fav"), GroupHas("?i", "?tar"), UnGroupHas("?i", "?tar")}),
        perms=PERMS,
    )
    rules = {r.rule for r in deduce(arch, trace, USERS)}
    assert "H4" not in rules and "H7" not in rules


def test_h10_requires_timely_delete():
    timely = [
        ArchEvent("deletereq", 2, user="alice", term=X),
        ArchEvent("delete", 4, user=SP, term=X),
    ]
    found = results_for("H10", deduce(ARCH, timely, USERS))
    assert {r.conclusion for r in found} == {
        HasNot(j, X, 4) for j in set(USERS) | {SP}
    }

    late = [
        ArchEvent("deletereq", 2, user="alice", term=X),
        ArchEvent("delete", 9, user=SP, term=X),
    ]
    assert results_for("H10", deduce(ARCH, late, USERS)) == []


def test_conclusions_deduplicates():
    rs = [
        DeductionResult("H1", Has("alice", X, 1), "a"),
        DeductionResult("H2", Has("alice", X, 1), "b"),
    ]
    assert conclusions(rs) == frozenset({Has("alice", X, 1)})


def test_render_each_form_and_deduction_result():
    """One renderer: a label, the user (the provider for HAS_sp), the
    variable's id and, for the timed forms, the time."""
    assert [p.render() for p in (HasSp(X), Has("bob", X, 3), HasNot("carol", X, 0),
                                 HasNever("alice", X))] == [
        "HAS_sp(d1)", "HAS_bob(d1, 3)", "HASnot_carol(d1, 0)", "HASnever_alice(d1)"]
    assert And((HasSp(X), HasNever(SP, X))).render() == "HAS_sp(d1) and HASnever_sp(d1)"
    r = DeductionResult("H2", Has("bob", X, 2), "'fav' by 'alice' grants 'bob' the value")
    assert r.render() == "H2\tHAS_bob(d1, 2)\t'fav' by 'alice' grants 'bob' the value"


# --- semantic oracle --------------------------------------------------------

UNIVERSE = Universe(users=USERS)


def test_semantic_has_sp_plain():
    pa = Architecture(activities=frozenset({Possess(X)}))
    v = eval_semantic(pa, HasSp(X), UNIVERSE, max_len=1)
    assert v.holds and not v.bounded


def test_semantic_has_sp_needs_both_ciphertext_and_key():
    cipher_only = Architecture(activities=frozenset({Possess(enc(X, KeyVar(SP)))}))
    v = eval_semantic(cipher_only, HasSp(X), UNIVERSE, max_len=2)
    assert not v.holds and v.bounded

    with_key = Architecture(
        activities=frozenset({Possess(enc(X, KeyVar(SP))), Possess(KeyVar(SP))})
    )
    v = eval_semantic(with_key, HasSp(X), UNIVERSE, max_len=2)
    assert v.holds and not v.bounded


def test_semantic_has_and_never():
    pa = Architecture(activities=frozenset({Own("alice", X)}))
    assert eval_semantic(pa, Has("alice", X, 1), UNIVERSE, max_len=1).holds
    v = eval_semantic(pa, HasNever("bob", X), UNIVERSE, max_len=2)
    assert v.holds and v.bounded
    v = eval_semantic(pa, HasNever("alice", X), UNIVERSE, max_len=1)
    assert not v.holds and not v.bounded


def test_semantic_user_outside_the_universe_is_never_touched():
    """A user the universe lacks reads as one no event touches: t = 0 and
    nothing defined, in every state."""
    pa = Architecture(activities=frozenset({Own("alice", X)}))
    assert "zed" not in USERS
    assert not eval_semantic(pa, Has("zed", X, 1), UNIVERSE, max_len=2).holds
    assert eval_semantic(pa, HasNever("zed", X), UNIVERSE, max_len=2).holds
    assert eval_semantic(pa, HasNot("zed", X, 0), UNIVERSE, max_len=2).holds
    assert not eval_semantic(pa, HasNot("zed", X, 1), UNIVERSE, max_len=2).holds


def test_semantic_has_rejects_pattern_variable():
    """Every form rejects a variable that is not completely defined, though
    alice holds d1 at t=1: no pattern variable reads as a held value."""
    pa = Architecture(activities=frozenset({Own("alice", X)}))
    assert eval_semantic(pa, Has("alice", X, 1), UNIVERSE, 2).holds
    pattern = Var(ow="?i", ds="?s", ident="d1")
    for prop in (HasSp(pattern), Has("alice", pattern, 1), HasNot("alice", pattern, 1),
                 HasNever("alice", pattern)):
        v = eval_semantic(pa, prop, UNIVERSE, 2)
        assert v == SemanticVerdict(False, False, "variable is not completely defined"), prop


def test_semantic_conjunction():
    pa = Architecture(activities=frozenset({Own("alice", X), Possess(X)}))
    both = And((Has("alice", X, 1), HasSp(X)))
    v = eval_semantic(pa, both, UNIVERSE, max_len=1)
    assert v.holds

    mixed = And((Has("alice", X, 1), HasNever("bob", X)))
    v = eval_semantic(pa, mixed, UNIVERSE, max_len=2)
    assert v.holds and v.bounded


def test_refuted_part_refutes_its_conjunction_outright():
    """A conjunction that fails is bounded only if each failing part is: one
    part refuted by a reachable state refutes the whole, whatever the bound
    says of the other parts."""
    pa = Architecture(activities=frozenset({Own("alice", X), Possess(X)}))
    refuted, unwitnessed = HasNever("alice", X), Has("bob", X, 1)
    assert eval_semantic(pa, refuted, UNIVERSE, max_len=2) == SemanticVerdict(
        False, False, "a reachable state defines the variable")
    assert eval_semantic(pa, unwitnessed, UNIVERSE, max_len=2).bounded
    for prop in (And((refuted, unwitnessed)), And((unwitnessed, refuted))):
        v = eval_semantic(pa, prop, UNIVERSE, max_len=2)
        assert (v.holds, v.bounded) == (False, False), prop
    v = eval_semantic(pa, And((Has("alice", X, 1), unwitnessed)), UNIVERSE, max_len=2)
    assert (v.holds, v.bounded) == (False, True)


def test_conjunction_enumerates_once(monkeypatch):
    """The parts of a conjunction are judged against one search."""
    import datactl.logic

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return search_states(*args, **kwargs)

    monkeypatch.setattr(datactl.logic, "search_states", counting)
    pa = Architecture(activities=frozenset({Own("alice", X), Possess(X)}))
    v = eval_semantic(pa, And((Has("alice", X, 1), HasNever("bob", X))), UNIVERSE, max_len=2)
    assert (v.holds, v.bounded) == (True, True)
    assert v.detail == "witness state found; holds of every state within bound"
    assert len(calls) == 1


def test_deduction_sound_for_this_architecture():
    """Every positive deduced conclusion is semantically witnessed."""
    trace = [
        ArchEvent("own", 1, user="alice", term=X, value="v"),
        ArchEvent("act1", 2, user="bob", action="fav", term=X, value="v"),
    ]
    for r in deduce(ARCH, trace, USERS):
        if isinstance(r.conclusion, (Has, HasSp)):
            v = eval_semantic(ARCH, r.conclusion, UNIVERSE, max_len=3)
            assert v.holds, r.render()


def test_deduction_witnessed_on_generated_models(monkeypatch):
    """Differential check of deduction against the bounded search on derived
    architectures: every deduced HAS/HAS_sp/HAS_not verdict about the first
    four events of a generated compliant trace's image is witnessed.  The
    un-action verdicts (H5/H6) need the step function to clear the holders of
    the base action, as the policy semantics does.  Each architecture is
    searched once, by one ``eval_semantic`` call whose verdict must equal
    ``judge`` on ``enumerate_states`` of the same architecture and bound;
    every conclusion is judged against those states."""
    import datactl.logic

    searched = []

    def recording(*args, **kwargs):
        searched.append(args)
        return search_states(*args, **kwargs)

    monkeypatch.setattr(datactl.logic, "search_states", recording)
    checked, unwitnessed = 0, []
    for seed in range(200):
        rng = random.Random(seed)
        model = random_model(rng)
        trace = compliant_trace(model, rng)
        ctx = MappingContext(model)
        pa = derive_architecture(trace, ctx)
        image = [e._replace(t=i) for i, e in enumerate(image_trace(trace, ctx)[:4], start=1)]
        users = sorted(model.users())
        universe = Universe(users=tuple(users))
        found = [r for r in deduce(pa, image, users)
                 if isinstance(r.conclusion, (Has, HasSp, HasNot))]
        if not found:
            continue
        verdict = eval_semantic(pa, found[0].conclusion, universe, max_len=len(image))
        assert len(searched) == 1, seed
        states = enumerate_states(*searched.pop())
        assert verdict == judge(found[0].conclusion, states), seed
        for r in found:
            checked += 1
            if not judge(r.conclusion, states).holds:
                unwitnessed.append(f"seed {seed}: {r.render()}")
    assert unwitnessed == []
    assert checked >= 650, checked


# --- the search stops once the verdict is settled ----------------------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "facebook"


def every_form(pa, users, bound):
    """HAS_sp of each of ``pa``'s variables; per user, HAS_never and HAS and
    HAS_not at each ``t <= bound``; and conjunctions of an existential with a
    HAS_never, which settle the existential first or never."""
    props = []
    for var in _activity_vars(pa):
        props.append(HasSp(var))
        for u in users:
            props.append(HasNever(u, var))
            props += [cls(u, var, t) for cls in (Has, HasNot) for t in range(bound + 1)]
        props += [And((HasSp(var), HasNever(users[0], var))),
                  And((HasNever(users[-1], var), HasNot(users[-1], var, 1)))]
    return props


def test_lazy_verdicts_equal_verdicts_over_every_state():
    """``eval_semantic`` reads its states one user at a time and stops once
    every part is settled; its verdict (holds, bounded and detail) must equal
    ``judge`` over the decoded ``enumerate_states`` of the same architecture
    and bound, on the architectures derived from generated compliant traces."""
    bound, checked = 3, 0
    for seed in range(100):
        rng = random.Random(seed)
        model = random_model(rng)
        pa = derive_architecture(compliant_trace(model, rng), MappingContext(model))
        users = sorted(model.users())
        universe = Universe(users=tuple(users))
        states = enumerate_states(pa, bound, universe)
        for prop in every_form(pa, users + [SP], bound):
            assert eval_semantic(pa, prop, universe, bound) == judge(prop, states), (seed, prop)
            checked += 1
    assert checked >= 5000, checked


def photo1_on(name):
    """A fixture architecture, the photo1.dcq query and the universe that
    ``eval-has`` searches."""
    pa = parse_architecture((FIXTURES / name).read_text(encoding="utf-8"))
    query = parse_has_query((FIXTURES / "photo1.dcq").read_text(encoding="utf-8"))
    return pa, query, Universe(users=tuple(sorted(_concrete_users(pa))))


@pytest.mark.parametrize("name", ["simplified.dca", "full.dca"])
def test_lazy_verdicts_equal_verdicts_over_every_state_on_the_fixtures(name):
    pa, query, universe = photo1_on(name)
    for max_len in range(5):
        states = enumerate_states(pa, max_len, universe)
        for prop in (query, *query.parts):
            assert eval_semantic(pa, prop, universe, max_len) == judge(prop, states), max_len


def test_settled_search_builds_no_deeper_state(monkeypatch):
    """photo1.dcq on simplified.dca is settled at depth 2: a search bounded
    at 4 takes no step beyond it, and holds."""
    depths = []
    moves = _Kernel.moves
    monkeypatch.setattr(_Kernel, "moves",
                        lambda self, depth: depths.append(depth) or moves(self, depth))
    pa, query, universe = photo1_on("simplified.dca")
    verdict = eval_semantic(pa, query, universe, max_len=4)
    assert verdict == SemanticVerdict(True, False, "witness state found; witness state found")
    assert depths == [1, 2]
