"""Policy-to-architecture mapping: storage cases, derivation, trace images,
correspondence, and the comparison orders."""

import random
import re

import pytest

from datactl.architecture import (
    Act1,
    Act2,
    AddFriends,
    Architecture,
    Delete,
    DeleteReq,
    GroupAct,
    GroupHas,
    KeyVar,
    Own,
    Possess,
    Var,
    enc,
    initial_state,
    is_compatible,
    run_arch_trace,
)
from datactl.dsl import (
    parse_arch_trace,
    parse_policy,
    parse_trace,
    serialize_arch_trace,
    serialize_policy,
    serialize_trace,
)
from datactl.logic import HasNot, conclusions, deduce
from datactl.mapping import (
    EQUAL,
    INCOMPARABLE,
    LOOSER,
    STRICTER,
    _ACTIVITY_OF,
    _FRIENDS_OF,
    MappingContext,
    check_correspondence,
    compare_architectures,
    compare_policies,
    derive_architecture,
    image_trace,
    map_storage,
    var_of,
)
from datactl.model import (
    SP,
    ActivitySets,
    DataRef,
    DeletionSpec,
    FriendAlias,
    Perms,
    Policy,
    PolicyModel,
    StorageSpec,
)
from datactl.semantics import (
    ACT1,
    ACT2,
    DELETE,
    DELETEREQ,
    GROUPACT,
    GROUPHAS,
    OWN,
    STORE,
    USE,
    AbstractEvent,
    possible_events,
    run_trace,
)

from modelgen import compliant_trace, full_events, random_model

DT = DataRef(ow="alice", ds=frozenset({"alice", "bob"}), dtype="Notes", ident="d1")
X = var_of(DT)


def policy(wh="sploc", how=("plain", "none"), **kw):
    defaults = dict(
        ap=frozenset({"billing"}),
        dm=DeletionSpec((("man", 5),)),
        storage=StorageSpec(wh=frozenset({wh}), ho=frozenset({how})),
        perms=Perms({"fav": frozenset({"bob"}), "delete": frozenset({"alice"})},
                    by={"fav": {"bob": frozenset({"bob", "carol"})}}),
    )
    defaults.update(kw)
    return Policy(**defaults)


SETS = ActivitySets(unary=(("fav", "unfav"),))


def make_model(pol=None, alias=None, sets=SETS):
    model = PolicyModel(sets=sets, alias=alias)
    model.data["d1"] = DT
    model.policies["d1"] = pol or policy()
    return model


# --- the four storage cases -------------------------------------------------


def test_storage_client_side():
    assert map_storage(DT, policy(wh="clientloc")) == frozenset({Own("alice", X)})


def test_storage_provider_plain():
    assert map_storage(DT, policy()) == frozenset({Own("alice", X), Possess(X)})


def test_storage_provider_key_encrypted():
    out = map_storage(DT, policy(how=("enc", "spkey")))
    assert out == frozenset(
        {Own("alice", X), Possess(enc(X, KeyVar(SP))), Possess(KeyVar(SP))}
    )


def test_storage_owner_key_encrypted():
    out = map_storage(DT, policy(how=("enc", "clkey")))
    assert out == frozenset(
        {Own("alice", X), Own("alice", KeyVar("alice")), Possess(enc(X, KeyVar("alice")))}
    )


# --- event-driven derivation ------------------------------------------------


def base_events():
    return [
        AbstractEvent(kind=OWN, t=1, dt=DT, actor="alice", value="v", policy=policy()),
        AbstractEvent(kind=STORE, t=2, dt=DT),
        AbstractEvent(kind=USE, t=3, dt=DT, purposes=frozenset({"billing"})),
        AbstractEvent(kind=ACT1, t=4, dt=DT, actor="bob", action="fav"),
        AbstractEvent(kind=DELETEREQ, t=5, dt=DT, actor="?i"),
        AbstractEvent(kind=DELETE, t=6, dt=DT),
    ]


def test_derivation_activity_set():
    pa = derive_architecture(base_events(), MappingContext(make_model()))
    assert pa.activities == frozenset(
        {
            Own("alice", X),
            Possess(X),
            Act1("bob", "fav", X),
            DeleteReq("?i", X),
            Delete(X, 5),
        }
    )
    assert pa.perms.can_do("fav") == frozenset({"bob"})
    assert pa.perms.holders("fav", "bob") == frozenset({"bob", "carol"})


def test_derivation_is_idempotent_over_events():
    ctx = MappingContext(make_model())
    once = derive_architecture(base_events(), ctx)
    twice = derive_architecture(base_events() + base_events(), ctx)
    assert once == twice


def test_use_leaves_no_footprint():
    ctx = MappingContext(make_model())
    with_use = derive_architecture(base_events(), ctx)
    without = derive_architecture(
        [e for e in base_events() if e.kind != USE], ctx
    )
    assert with_use == without


def test_group_events_with_and_without_alias():
    events = [
        AbstractEvent(kind=OWN, t=1, dt=DT, actor="alice", value="v", policy=policy()),
        AbstractEvent(kind=GROUPACT, t=2, dt=DT, actor="?i", tar="?tar", action="fav"),
        AbstractEvent(kind=GROUPHAS, t=3, dt=DT, actor="?i", tar="?tar"),
    ]
    plain = derive_architecture(events, MappingContext(make_model()))
    assert GroupAct("?i", "?tar", "fav") in plain.activities
    assert GroupHas("?i", "?tar") in plain.activities

    alias = FriendAlias("addfriends", "unfriends", ("fav",))
    simplified = derive_architecture(
        events, MappingContext(make_model(alias=alias), simplify_friends=True)
    )
    assert AddFriends("?i", "?tar", ("fav",)) in simplified.activities
    assert not simplified.of_type(GroupAct) and not simplified.of_type(GroupHas)


def test_delete_delay_falls_back_to_automatic_mode():
    pol = policy(dm=DeletionSpec((("aut", 9),)))
    events = [
        AbstractEvent(kind=OWN, t=1, dt=DT, actor="alice", value="v", policy=pol),
        AbstractEvent(kind=DELETE, t=2, dt=DT),
    ]
    pa = derive_architecture(events, MappingContext(make_model(pol=pol)))
    assert Delete(X, 9) in pa.activities


# --- trace image ------------------------------------------------------------


def test_image_trace_shapes():
    ctx = MappingContext(make_model())
    image = image_trace(base_events(), ctx)
    kinds = [e.kind for e in image]
    assert kinds == ["own", "possess", "act1", "deletereq", "delete"]
    own = image[0]
    assert own.term == X and own.value == "v"
    possess = image[1]
    assert possess.user == SP and possess.value == "v"


def test_image_trace_encrypted_store():
    pol = policy(how=("enc", "spkey"))
    model = make_model(pol=pol)
    events = [
        AbstractEvent(kind=OWN, t=1, dt=DT, actor="alice", value="v", policy=pol),
        AbstractEvent(kind=STORE, t=2, dt=DT),
    ]
    image = image_trace(events, MappingContext(model))
    terms = {e.term for e in image if e.kind == "possess"}
    assert terms == {enc(X, KeyVar(SP)), KeyVar(SP)}


def test_image_trace_alias_collapse():
    alias = FriendAlias("addfriends", "unfriends", ("fav",))
    model = make_model(alias=alias)
    events = [
        AbstractEvent(kind=OWN, t=1, dt=DT, actor="alice", value="v", policy=policy()),
        AbstractEvent(kind=GROUPACT, t=2, dt=DT, actor="alice", tar="bob", action="fav"),
        AbstractEvent(kind=GROUPHAS, t=2, dt=DT, actor="alice", tar="bob"),
    ]
    image = image_trace(events, MappingContext(model, simplify_friends=True))
    assert [e.kind for e in image] == ["own", "addfriends", "addfriends"]
    assert image[1].actions == ("fav",)


def test_every_policy_event_kind_is_mapped():
    sets = ActivitySets(unary=(("fav", "unfav"),), binary=(("link", "unlink"),))
    kinds = {t.kind for t in possible_events(sets)}
    assert kinds == set(_ACTIVITY_OF) | {STORE, DELETE, USE}
    assert set(_FRIENDS_OF) <= set(_ACTIVITY_OF)


@pytest.mark.parametrize("simplify", [False, True], ids=["plain", "simplified"])
def test_image_instantiates_the_derived_architecture(simplify):
    """The mapping's two halves agree: the image of a trace is a compatible
    trace of the architecture derived from it."""
    for seed in range(100):
        for with_alias in (False, True):
            model = random_model(random.Random(seed))
            if with_alias:
                model.alias = FriendAlias("addfriends", "unfriends", model.sets.base_names())
            ctx = MappingContext(model, simplify_friends=simplify)
            for trace in (compliant_trace(model, random.Random(seed), max_len=30),
                          full_events(model)):
                pa = derive_architecture(trace, ctx)
                assert is_compatible(image_trace(trace, ctx), pa) == (True, None), seed


# --- correspondence ---------------------------------------------------------


def test_correspondence_holds_for_derived_architecture():
    ctx = MappingContext(make_model())
    report = check_correspondence(ctx, trace=base_events())
    assert report.holds, report.render()


def test_correspondence_flags_extra_possession():
    """A provider possession the policy's storage rule does not license."""
    pol = policy(wh="clientloc")
    ctx = MappingContext(make_model(pol=pol))
    events = [AbstractEvent(kind=OWN, t=1, dt=DT, actor="alice", value="v", policy=pol)]
    pa = derive_architecture(events, ctx)
    tampered = Architecture(activities=pa.activities | {Possess(X)}, perms=pa.perms)
    report = check_correspondence(ctx, pa=tampered, trace=events)
    failed = {r.prop for r in report.results if r.status == "fails"}
    assert "P5" in failed


def test_correspondence_flags_missing_owner():
    ctx = MappingContext(make_model())
    events = base_events()
    pa = derive_architecture(events, ctx)
    tampered = Architecture(
        activities=frozenset(a for a in pa.activities if not isinstance(a, Own)),
        perms=pa.perms,
    )
    report = check_correspondence(ctx, pa=tampered, trace=events)
    failed = {(r.prop, r.user) for r in report.results if r.status == "fails"}
    assert ("P2", "alice") in failed


def test_correspondence_flags_dropped_deletion():
    ctx = MappingContext(make_model())
    events = base_events()
    pa = derive_architecture(events, ctx)
    tampered = Architecture(
        activities=frozenset(a for a in pa.activities if not isinstance(a, Delete)),
        perms=pa.perms,
    )
    report = check_correspondence(ctx, pa=tampered, trace=events)
    failed = {r.prop for r in report.results if r.status == "fails"}
    assert "P6" in failed


def test_correspondence_generated_round_trips():
    """The architecture derived from a model's full event inventory satisfies
    every applicable biconditional."""
    for seed in range(15):
        rng = random.Random(seed)
        model = random_model(rng)
        report = check_correspondence(MappingContext(model), trace=full_events(model))
        assert report.holds, f"seed {seed}: {report.render()}"


# --- comparison orders ------------------------------------------------------


def test_compare_policies_reflexive():
    p = policy()
    assert compare_policies(p, p).overall == EQUAL


def test_compare_policies_subset_is_stricter():
    narrow = policy(ap=frozenset({"billing"}))
    wide = policy(ap=frozenset({"billing", "research"}))
    cmp = compare_policies(narrow, wide)
    assert cmp.components["ap"] == STRICTER and cmp.overall == STRICTER
    assert compare_policies(wide, narrow).overall == LOOSER


def test_compare_policies_shorter_delay_is_stricter():
    fast = policy(dm=DeletionSpec((("man", 2),)))
    slow = policy(dm=DeletionSpec((("man", 8),)))
    assert compare_policies(fast, slow).components["dm"] == STRICTER
    absent = policy(dm=DeletionSpec())
    assert compare_policies(absent, fast).components["dm"] == STRICTER


def test_compare_policies_incomparable():
    a = policy(ap=frozenset({"billing"}),
               perms=Perms({"fav": frozenset({"bob", "carol"})}))
    b = policy(ap=frozenset({"billing", "research"}),
               perms=Perms({"fav": frozenset({"bob"})}))
    assert compare_policies(a, b).overall == INCOMPARABLE


def test_compare_policies_order_properties():
    """Antisymmetry and transitivity of the strictness order over random pairs."""
    rng = random.Random(7)
    pool = [random_model(rng) for _ in range(12)]
    policies = [pol for m in pool for pol in m.policies.values()]
    for p1 in policies[:8]:
        for p2 in policies[:8]:
            r12 = compare_policies(p1, p2).overall
            r21 = compare_policies(p2, p1).overall
            if r12 == STRICTER:
                assert r21 == LOOSER
            if r12 == EQUAL:
                assert r21 == EQUAL
            for p3 in policies[:8]:
                if (
                    r12 == STRICTER
                    and compare_policies(p2, p3).overall == STRICTER
                ):
                    assert compare_policies(p1, p3).overall == STRICTER


def test_compare_architectures_relations():
    small = Architecture(activities=frozenset({Own("alice", X)}))
    big = Architecture(activities=frozenset({Own("alice", X), Possess(X)}))
    other = Architecture(activities=frozenset({Possess(KeyVar(SP))}))
    assert compare_architectures(small, small).overall == EQUAL
    assert compare_architectures(small, big).overall == "subset"
    assert compare_architectures(big, small).overall == "superset"
    cmp = compare_architectures(small, other)
    assert cmp.overall == INCOMPARABLE
    assert cmp.only_first == (Own("alice", X),)
    assert cmp.only_second == (Possess(KeyVar(SP)),)


def test_compare_architectures_orders_permissions():
    """Smaller permission tables are a subset too, an empty entry equals a
    missing one, and the differing permission lines are listed."""
    acts = frozenset({Own("alice", X)})
    narrow = Architecture(activities=acts, perms=Perms(can={"like": frozenset({"alice"})}))
    wide = Architecture(activities=acts, perms=Perms(
        can={"like": frozenset({"alice", "bob"})}, by={"like": {"alice": frozenset({"bob"})}}))
    cmp = compare_architectures(narrow, wide)
    assert cmp.overall == "subset" and cmp.only_first == cmp.only_second == ()
    assert cmp.perms_first == ("can like = {alice};",)
    assert cmp.perms_second == ("can like = {alice, bob};", "has by like alice = {bob};")
    assert compare_architectures(wide, narrow).overall == "superset"
    # more activities but fewer permissions: neither contains the other
    more = Architecture(activities=acts | {Possess(X)}, perms=narrow.perms)
    assert compare_architectures(more, wide).overall == INCOMPARABLE
    assert compare_architectures(more, narrow).overall == "superset"
    padded = Perms(can={"like": frozenset({"alice"}), "post": frozenset()}, group=frozenset())
    same = compare_architectures(narrow, Architecture(activities=acts, perms=padded))
    assert same.overall == EQUAL and same.render() == "overall\tequal"


# --- un-action names ----------------------------------------------------------


def _rename(text, names):
    """``text`` with each identifier that ``names`` maps replaced by its image."""
    return re.sub(r"[A-Za-z_?][A-Za-z0-9_?-]*", lambda m: names.get(m[0], m[0]), text)


def _image_run(model, trace):
    """Over the trace's image on the architecture derived from the trace: the
    (user, term) holders after each image event, and the rendered deductions."""
    ctx = MappingContext(model)
    pa = derive_architecture(trace, ctx)
    image = image_trace(trace, ctx)
    users = sorted(model.users())
    init = initial_state(pa, users)
    holders = [frozenset((u.user, term) for u in run_arch_trace(image[:i], init).users
                         for term, _ in u.bindings)
               for i in range(1, len(image) + 1)]
    return holders, sorted(r.render() for r in deduce(pa, image, users))


def test_un_action_names_do_not_change_the_architecture_level():
    """Renaming every ``un<a>`` to ``de<a>`` in a generated policy and its
    trace, printed and parsed again, changes neither the holders after any
    image event nor, with the names mapped back, what the rules deduce: the
    architecture level reads the declared pairs, not the names."""
    holder_seeds, deduce_seeds = [], []
    for seed in range(200):
        rng = random.Random(seed)
        model = random_model(rng)
        trace = compliant_trace(model, rng)
        names = {undo: "de" + undo[2:] for _, undo in model.sets.unary + model.sets.binary}
        renamed = parse_policy(_rename(serialize_policy(model), names))
        retrace = parse_trace(_rename(serialize_trace(trace, model), names), renamed)
        holders, deduced = _image_run(model, trace)
        re_holders, re_deduced = _image_run(renamed, retrace)
        back = {new: old for old, new in names.items()}
        if holders != re_holders:
            holder_seeds.append(seed)
        if deduced != sorted(_rename(line, back) for line in re_deduced):
            deduce_seeds.append(seed)
    assert (holder_seeds, deduce_seeds) == ([], [])


# A pair not named ``X/unX``: bob's ``fav`` gives carol the datum, ``defav``
# takes it back.
FAV_DEFAV_POLICY = (
    "actions { unary fav/defav; }\n"
    "data d1 { ow = alice; ds = {alice, bob, carol}; type = Notes; policy {\n"
    "  purposes = {p}; delete = {man:1}; where = {clientloc}; how = {plain};\n"
    "  can fav = {bob}; can defav = {bob}; has by fav bob = {carol};\n"
    "} }\n"
)
FAV_DEFAV_TRACE = ('trace {\n  own(t=1, or=alice, dt=d1, value="v");\n'
                   "  fav(t=2, or=bob, dt=d1);\n  defav(t=3, or=bob, dt=d1);\n}\n")


def test_an_un_action_takes_back_its_declared_pair_at_both_levels():
    model = parse_policy(FAV_DEFAV_POLICY)
    trace = parse_trace(FAV_DEFAV_TRACE, model)
    x = var_of(model.data["d1"])
    assert run_trace(trace, model.sets)[model.data["d1"]].h_has == {"alice"}

    ctx = MappingContext(model)
    pa = derive_architecture(trace, ctx)
    image = image_trace(trace, ctx)
    assert pa.sets == model.sets and [e.kind for e in image] == ["own", "act1", "unact1"]
    again = parse_arch_trace(serialize_arch_trace(image), pa.sets)
    assert again == image
    final = run_arch_trace(again, initial_state(pa, sorted(model.users())))
    assert {u.user for u in final.users if u.value(x) is not None} == {"alice"}
    assert HasNot("carol", x, 3) in conclusions(deduce(pa, again, model.users()))


def test_compare_architectures_relates_the_declared_pairs():
    """The same activities and tables with other pairs are not equal: the
    pairs decide whom each un-action withdraws."""
    acts = frozenset({Own("alice", X)})
    first = Architecture(activities=acts, sets=ActivitySets(
        unary=(("like", "unlike"), ("comment", "uncomment"))))
    second = Architecture(activities=acts, sets=ActivitySets(
        unary=(("like", "uncomment"), ("comment", "unlike"))))
    cmp = compare_architectures(first, second)
    assert cmp.render() == ("- unary comment/uncomment;\n- unary like/unlike;\n"
                            "+ unary comment/unlike;\n+ unary like/uncomment;\n"
                            "overall\tincomparable")
    fewer = Architecture(activities=acts, sets=ActivitySets(unary=(("like", "unlike"),)))
    assert compare_architectures(fewer, first).overall == "subset"
    assert compare_architectures(first, fewer).render() == (
        "- unary comment/uncomment;\noverall\tsuperset")
    assert compare_architectures(first, first).overall == EQUAL
