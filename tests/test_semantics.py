"""One dedicated test per transition case, un-actions resolved through the
declared pairs, trace folding and the event-inventory counts."""

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
    OWN,
    STORE,
    UNACT1,
    UNACT2,
    UNGROUPACT,
    UNGROUPHAS,
    USE,
    AbstractEvent,
    SemanticsError,
    iter_states,
    possible_events,
    run_trace,
    step,
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


def owned(pol=POL):
    """The datum's entry after it is owned."""
    return step(None, own_event(pol=pol), 1, SETS)


def after(entry, e):
    """The entry after ``e``, the trace's second event."""
    return step(entry, e, 2, SETS)


# --- the twelve transition cases -------------------------------------------


def test_case_own_initializes_entry():
    entry = owned()
    assert entry.t == 1 and entry.v == "v0"
    assert entry.h_has == frozenset({"alice"})
    assert entry.policy is POL


def test_case_store_adds_provider_when_readable():
    assert SP in after(owned(), AbstractEvent(kind=STORE, t=2, dt=DT)).h_has

    clkey = Policy(
        ap=POL.ap, dm=POL.dm,
        storage=StorageSpec(wh=frozenset({"sploc"}), ho=frozenset({("enc", "clkey")})),
        perms=POL.perms,
    )
    entry = after(owned(pol=clkey), AbstractEvent(kind=STORE, t=2, dt=DT))
    assert SP not in entry.h_has
    assert entry.t == 1  # unreadable storage leaves the entry untouched


def test_case_use_is_identity():
    before = owned()
    assert after(before, AbstractEvent(kind=USE, t=2, dt=DT,
                                       purposes=frozenset({"billing"}))) == before


def test_case_deletereq_identity_with_manual_mode():
    before = owned()
    assert after(before, AbstractEvent(kind=DELETEREQ, t=2, dt=DT, actor="alice")) == before


def test_case_deletereq_rejected_without_manual_mode():
    aut_only = Policy(ap=POL.ap, dm=DeletionSpec((("aut", 5),)),
                      storage=POL.storage, perms=POL.perms)
    with pytest.raises(SemanticsError):
        after(owned(pol=aut_only), AbstractEvent(kind=DELETEREQ, t=2, dt=DT, actor="alice"))


def test_case_delete_maps_to_undefined():
    assert after(owned(), AbstractEvent(kind=DELETE, t=2, dt=DT)) is None


def test_case_groupact_grants_and_adds_holder():
    e = AbstractEvent(kind=GROUPACT, t=2, dt=DT, actor="alice", tar="dave", action="fav")
    entry = after(owned(), e)
    assert "dave" in entry.policy.perms.can_do("fav")
    assert "dave" in entry.h_has and entry.t == 2


def test_case_ungroupact_revokes_and_removes_holder():
    entry = after(owned(), AbstractEvent(
        kind=GROUPACT, t=2, dt=DT, actor="alice", tar="dave", action="fav"))
    entry = step(entry, AbstractEvent(
        kind=UNGROUPACT, t=3, dt=DT, actor="alice", tar="dave", action="fav"), 3, SETS)
    assert "dave" not in entry.policy.perms.can_do("fav")
    assert "dave" not in entry.h_has


def test_case_grouphas_adds_to_group_and_holders():
    entry = after(owned(), AbstractEvent(kind=GROUPHAS, t=2, dt=DT, actor="alice", tar="dave"))
    assert "dave" in entry.policy.perms.group
    assert "dave" in entry.h_has


def test_case_ungrouphas_removes_from_group_and_holders():
    entry = after(owned(), AbstractEvent(kind=GROUPHAS, t=2, dt=DT, actor="alice", tar="dave"))
    entry = step(entry, AbstractEvent(
        kind=UNGROUPHAS, t=3, dt=DT, actor="alice", tar="dave"), 3, SETS)
    assert "dave" not in entry.policy.perms.group
    assert "dave" not in entry.h_has


def test_case_act1_guarded_update():
    entry = after(owned(), AbstractEvent(kind=ACT1, t=2, dt=DT, actor="bob", action="fav"))
    assert entry.h_has >= frozenset({"bob", "carol"})

    # guard fall-through: an unpermitted performer leaves the entry unchanged
    before = owned()
    assert after(before, AbstractEvent(kind=ACT1, t=2, dt=DT,
                                       actor="carol", action="fav")) is before


def test_case_unact1_reverses_update():
    entry = after(owned(), AbstractEvent(kind=ACT1, t=2, dt=DT, actor="bob", action="fav"))
    entry = step(entry, AbstractEvent(
        kind=UNACT1, t=3, dt=DT, actor="bob", action="unfav"), 3, SETS)
    assert "carol" not in entry.h_has


def test_case_act2_intersection_update():
    entry = after(owned(), AbstractEvent(kind=ACT2, t=2, dt=DT, actor="alice", tar="bob",
                                         action="link"))
    # by(alice) = {bob, carol}; been(bob) = {carol}; intersection = {carol},
    # held besides the owner
    assert entry.h_has == frozenset({"alice", "carol"})

    # guard fall-through for the binary family
    before = owned()
    assert after(before, AbstractEvent(kind=ACT2, t=2, dt=DT,
                                       actor="bob", tar="alice", action="link")) is before


def test_case_unact2_reverses_update():
    entry = after(owned(), AbstractEvent(
        kind=ACT2, t=2, dt=DT, actor="alice", tar="bob", action="link"))
    entry = step(entry, AbstractEvent(
        kind=UNACT2, t=3, dt=DT, actor="alice", tar="bob", action="unlink"), 3, SETS)
    assert "carol" not in entry.h_has


# --- un-actions resolve through the declared pairs -------------------------

# ``defav`` takes back ``fav`` though its name does not start with ``un``.
DEFAV_SETS = ActivitySets(unary=(("fav", "defav"),))
DEFAV_POL = Policy(
    ap=POL.ap, dm=POL.dm, storage=POL.storage,
    perms=Perms({"fav": frozenset({"bob"}), "defav": frozenset({"bob"})},
                by={"fav": {"bob": frozenset({"bob", "carol"})}}),
)


def test_unaction_clears_what_its_declared_action_granted():
    fav = AbstractEvent(kind=ACT1, t=2, dt=DT, actor="bob", action="fav")
    defav = AbstractEvent(kind=UNACT1, t=3, dt=DT, actor="bob", action="defav")
    entry = step(None, own_event(pol=DEFAV_POL), 1, DEFAV_SETS)
    entry = step(entry, fav, 2, DEFAV_SETS)
    assert entry.h_has == frozenset({"alice", "bob", "carol"})
    entry = step(entry, defav, 3, DEFAV_SETS)
    assert (entry.t, entry.h_has) == (3, frozenset({"alice"}))
    trace = [own_event(pol=DEFAV_POL), fav, defav]
    assert run_trace(trace, DEFAV_SETS) == {DT: entry}


# --- folds, errors, inventory ----------------------------------------------


def test_duplicate_own_rejected():
    with pytest.raises(SemanticsError):
        after(owned(), own_event(t=2))


def test_own_without_policy_rejected():
    with pytest.raises(SemanticsError, match="own event carries no policy"):
        step(None, own_event(pol=None), 1, SETS)


def test_event_on_undefined_datum_rejected():
    with pytest.raises(SemanticsError):
        step(None, AbstractEvent(kind=STORE, t=1, dt=DT), 1, SETS)


def test_run_trace_reports_failing_position():
    trace = [own_event(), AbstractEvent(kind=DELETE, t=2, dt=DT),
             AbstractEvent(kind=STORE, t=3, dt=DT)]
    with pytest.raises(SemanticsError) as err:
        run_trace(trace, SETS)
    assert err.value.index == 3


def test_state_at_prefix_semantics():
    """The i-th state is the fold of the first i events: a plain map, in which
    a deleted datum maps to None and a datum never owned is absent."""
    trace = [own_event(), AbstractEvent(kind=STORE, t=2, dt=DT),
             AbstractEvent(kind=DELETE, t=3, dt=DT)]
    states = list(iter_states(trace, SETS))
    assert states[0] == {}
    assert SP not in states[1][DT].h_has
    assert SP in states[2][DT].h_has
    assert states[3] == {DT: None}
    assert [run_trace(trace[:i], SETS) for i in range(4)] == states


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
