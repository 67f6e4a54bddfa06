"""One dedicated test per transition case, plus trace folding and the
event-inventory counts."""

import pytest

from datactl.model import (
    SP,
    ActivitySets,
    DataRef,
    DeletionSpec,
    Perms,
    Policy,
    StorageSpec,
)
from datactl.semantics import (
    ACT1,
    ACT2,
    DELETE,
    DELETEREQ,
    GROUPACT,
    GROUPHAS,
    INITIAL_STATE,
    OWN,
    STORE,
    UNACT1,
    UNACT2,
    UNGROUPACT,
    UNGROUPHAS,
    USE,
    AbstractEvent,
    SemanticsError,
    apply_event,
    iter_states,
    possible_events,
    run_trace,
    state_at,
)

SETS = ActivitySets(unary=(("fav", "unfav"),), binary=(("link", "unlink"),))

DT = DataRef(ow="alice", ds=frozenset({"alice", "bob"}), dtype="Notes", ident="d1")

POL = Policy(
    ap=frozenset({"billing"}),
    dm=DeletionSpec((("man", 5),)),
    storage=StorageSpec(wh=frozenset({"sploc"}), ho=frozenset({("plain", "none")})),
    perms=Perms(
        {
            "fav": frozenset({"bob"}),
            "unfav": frozenset({"bob"}),
            "link": frozenset({"alice"}),
            "unlink": frozenset({"alice"}),
        },
        by={"fav": {"bob": frozenset({"bob", "carol"})},
            "link": {"alice": frozenset({"bob", "carol"})}},
        been={"link": {"bob": frozenset({"carol"})}},
    ),
)


def own_event(t=1, pol=POL):
    return AbstractEvent(kind=OWN, t=t, dt=DT, actor="alice", value="v0", policy=pol)


def owned_state(pol=POL):
    return apply_event(INITIAL_STATE, own_event(pol=pol))


# --- the twelve transition cases -------------------------------------------


def test_case_own_initializes_entry():
    state = owned_state()
    entry = state.get(DT)
    assert entry.t == 1 and entry.v == "v0"
    assert entry.h_has == frozenset({"alice"})
    assert entry.policy is POL


def test_case_store_adds_provider_when_readable():
    state = apply_event(owned_state(), AbstractEvent(kind=STORE, t=2, dt=DT))
    assert SP in state.get(DT).h_has

    clkey = Policy(
        ap=POL.ap, dm=POL.dm,
        storage=StorageSpec(wh=frozenset({"sploc"}), ho=frozenset({("enc", "clkey")})),
        perms=POL.perms,
    )
    state = apply_event(owned_state(pol=clkey), AbstractEvent(kind=STORE, t=2, dt=DT))
    assert SP not in state.get(DT).h_has
    assert state.get(DT).t == 1  # unreadable storage leaves the entry untouched


def test_case_use_is_identity():
    before = owned_state()
    after = apply_event(before, AbstractEvent(kind=USE, t=2, dt=DT,
                                              purposes=frozenset({"billing"})))
    assert after.get(DT) == before.get(DT)


def test_case_deletereq_identity_with_manual_mode():
    before = owned_state()
    after = apply_event(before, AbstractEvent(kind=DELETEREQ, t=2, dt=DT, actor="alice"))
    assert after.get(DT) == before.get(DT)


def test_case_deletereq_rejected_without_manual_mode():
    aut_only = Policy(ap=POL.ap, dm=DeletionSpec((("aut", 5),)),
                      storage=POL.storage, perms=POL.perms)
    with pytest.raises(SemanticsError):
        apply_event(owned_state(pol=aut_only),
                    AbstractEvent(kind=DELETEREQ, t=2, dt=DT, actor="alice"))


def test_case_delete_maps_to_undefined():
    state = apply_event(owned_state(), AbstractEvent(kind=DELETE, t=2, dt=DT))
    assert state.get(DT) is None


def test_case_groupact_grants_and_adds_holder():
    e = AbstractEvent(kind=GROUPACT, t=2, dt=DT, actor="alice", tar="dave", action="fav")
    entry = apply_event(owned_state(), e).get(DT)
    assert "dave" in entry.policy.perms.can_do("fav")
    assert "dave" in entry.h_has and entry.t == 2


def test_case_ungroupact_revokes_and_removes_holder():
    state = apply_event(owned_state(), AbstractEvent(
        kind=GROUPACT, t=2, dt=DT, actor="alice", tar="dave", action="fav"))
    entry = apply_event(state, AbstractEvent(
        kind=UNGROUPACT, t=3, dt=DT, actor="alice", tar="dave", action="fav")).get(DT)
    assert "dave" not in entry.policy.perms.can_do("fav")
    assert "dave" not in entry.h_has


def test_case_grouphas_adds_to_group_and_holders():
    entry = apply_event(owned_state(), AbstractEvent(
        kind=GROUPHAS, t=2, dt=DT, actor="alice", tar="dave")).get(DT)
    assert "dave" in entry.policy.perms.group
    assert "dave" in entry.h_has


def test_case_ungrouphas_removes_from_group_and_holders():
    state = apply_event(owned_state(), AbstractEvent(
        kind=GROUPHAS, t=2, dt=DT, actor="alice", tar="dave"))
    entry = apply_event(state, AbstractEvent(
        kind=UNGROUPHAS, t=3, dt=DT, actor="alice", tar="dave")).get(DT)
    assert "dave" not in entry.policy.perms.group
    assert "dave" not in entry.h_has


def test_case_act1_guarded_update():
    e = AbstractEvent(kind=ACT1, t=2, dt=DT, actor="bob", action="fav")
    entry = apply_event(owned_state(), e, sets=SETS).get(DT)
    assert entry.h_has >= frozenset({"bob", "carol"})

    # guard fall-through: an unpermitted performer leaves the state unchanged
    before = owned_state()
    after = apply_event(before, AbstractEvent(kind=ACT1, t=2, dt=DT,
                                              actor="carol", action="fav"), sets=SETS)
    assert after.get(DT) == before.get(DT)


def test_case_unact1_reverses_update():
    state = apply_event(owned_state(), AbstractEvent(
        kind=ACT1, t=2, dt=DT, actor="bob", action="fav"), sets=SETS)
    entry = apply_event(state, AbstractEvent(
        kind=UNACT1, t=3, dt=DT, actor="bob", action="unfav"), sets=SETS).get(DT)
    assert "carol" not in entry.h_has


def test_case_act2_intersection_update():
    e = AbstractEvent(kind=ACT2, t=2, dt=DT, actor="alice", tar="bob", action="link")
    entry = apply_event(owned_state(), e, sets=SETS).get(DT)
    # by(alice) = {bob, carol}; been(bob) = {carol}; intersection = {carol},
    # held besides the owner
    assert entry.h_has == frozenset({"alice", "carol"})

    # guard fall-through for the binary family
    before = owned_state()
    after = apply_event(before, AbstractEvent(kind=ACT2, t=2, dt=DT,
                                              actor="bob", tar="alice", action="link"),
                        sets=SETS)
    assert after.get(DT) == before.get(DT)


def test_case_unact2_reverses_update():
    state = apply_event(owned_state(), AbstractEvent(
        kind=ACT2, t=2, dt=DT, actor="alice", tar="bob", action="link"), sets=SETS)
    entry = apply_event(state, AbstractEvent(
        kind=UNACT2, t=3, dt=DT, actor="alice", tar="bob", action="unlink"),
        sets=SETS).get(DT)
    assert "carol" not in entry.h_has


# --- folds, errors, inventory ----------------------------------------------


def test_duplicate_own_rejected():
    with pytest.raises(SemanticsError):
        apply_event(owned_state(), own_event(t=2))


def test_own_without_policy_rejected():
    with pytest.raises(SemanticsError, match="own event carries no policy"):
        apply_event(INITIAL_STATE, own_event(pol=None))


def test_event_on_undefined_datum_rejected():
    with pytest.raises(SemanticsError):
        apply_event(INITIAL_STATE, AbstractEvent(kind=STORE, t=1, dt=DT))


def test_run_trace_reports_failing_position():
    trace = [own_event(), AbstractEvent(kind=DELETE, t=2, dt=DT),
             AbstractEvent(kind=STORE, t=3, dt=DT)]
    with pytest.raises(SemanticsError) as err:
        run_trace(trace, SETS)
    assert err.value.index == 3


def test_state_at_prefix_semantics():
    trace = [own_event(), AbstractEvent(kind=STORE, t=2, dt=DT)]
    assert state_at(trace, 0, SETS).get(DT) is None
    assert SP not in state_at(trace, 1, SETS).get(DT).h_has
    assert SP in state_at(trace, 2, SETS).get(DT).h_has
    for i in (-1, 3):
        with pytest.raises(IndexError, match=f"prefix length {i} out of range"):
            state_at(trace, i, SETS)


def test_iter_states_length():
    trace = [own_event(), AbstractEvent(kind=STORE, t=2, dt=DT)]
    assert len(list(iter_states(trace, SETS))) == 3


def test_possible_events_counts():
    templates = possible_events(SETS)
    # 5 predefined + 2 group pairs (fav, link) + has pair + 4 actions
    assert len(templates) == 5 + 4 + 2 + 4
    names = {t.name for t in templates}
    assert {"groupfav", "ungroupfav", "grouplink", "ungrouplink"} <= names
    assert {"fav", "unfav", "link", "unlink"} <= names

    empty = ActivitySets()
    assert len(possible_events(empty)) == 7
