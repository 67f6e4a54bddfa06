"""Event semantics at the architecture level, compatibility matching, and the
bounded enumerator checked against a naive per-depth oracle and against the
fold of every trace."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from datactl.architecture import (
    ACTIVITIES,
    Act1,
    Act2,
    AddFriends,
    ArchEvent,
    ArchPerms,
    ArchSemanticsError,
    Architecture,
    Delete,
    DeleteReq,
    EnumerationLimit,
    GroupAct,
    GroupHas,
    Own,
    Possess,
    PossessOneOf,
    UnAct1,
    UnAct2,
    UnFriends,
    UnGroupAct,
    UnGroupHas,
    Universe,
    Var,
    KeyVar,
    apply_arch_event,
    enc,
    enumerate_states,
    initial_state,
    instantiate_events,
    is_compatible,
    is_consistent,
    run_arch_trace,
    search_states,
)
from datactl.cli import _concrete_users
from datactl.dsl import parse_architecture, serialize_architecture
from datactl.mapping import MappingContext, derive_architecture
from datactl.model import SP, ActivitySets, Perms
from modelgen import compliant_trace, random_model

X = Var(ow="alice", ds=frozenset({"alice", "bob"}), ident="d1")
SETS = ActivitySets(unary=(("fav", "unfav"),), binary=(("link", "unlink"),))
X_PAT = Var(ow="?i", ds=frozenset({"alice", "bob"}), ident="d1")


def make_arch(extra=(), perms=Perms()):
    activities = frozenset(
        {
            Own("alice", X),
            Possess(X),
            DeleteReq("?i", X),
            Delete(X, dd=3),
            Act1("?i", "fav", X),
        }
        | set(extra)
    )
    return Architecture(activities=activities, perms=perms, sets=SETS)


PERMS = Perms(
    can={"fav": frozenset({"alice", "bob"})},
    by={"fav": {"alice": frozenset({"bob"})}},
)


# --- term matching ----------------------------------------------------------


def test_var_pattern_matching():
    assert X_PAT.matches(X)
    assert not X.matches(Var(ow="bob", ds=X.ds, ident="d1"))
    assert Var(ow="?i", ds="?s", ident="?x").matches(X)
    assert not Var(ow="alice", ds=frozenset({"alice"}), ident="d1").matches(X)
    assert KeyVar("?i").matches(KeyVar("sp"))
    assert enc(X_PAT, KeyVar("sp")).matches(enc(X, KeyVar("sp")))
    assert not enc(X, KeyVar("sp")).matches(enc(X, KeyVar("alice")))


def test_consistency_rejects_two_concrete_owners():
    pa = Architecture(activities=frozenset({Own("alice", X), Own("bob", X)}))
    ok, witness = is_consistent(pa)
    assert not ok and witness == X
    ok, _ = is_consistent(Architecture(activities=frozenset({Own("alice", X), Own("?i", X)})))
    assert ok


# --- event semantics --------------------------------------------------------


def granted(sigma, action):
    return frozenset(u for a, u in sigma.can if a == action)


def test_own_and_possess_bind_values():
    sigma = initial_state(make_arch(), ["alice", "bob"])
    sigma = apply_arch_event(sigma, ArchEvent("own", 1, user="alice", term=X, value="v"))
    assert sigma.user("alice").value(X) == "v"
    assert sigma.user("bob").value(X) is None
    sigma = apply_arch_event(sigma, ArchEvent("possess", 2, user=SP, term=X, value="v"))
    assert sigma.user(SP).value(X) == "v"


def test_groupact_edits_shared_can_table():
    sigma = initial_state(make_arch(), ["alice", "bob"])
    e = ArchEvent("groupact", 1, user="alice", tar="bob", action="fav")
    sigma = apply_arch_event(sigma, e)
    assert granted(sigma, "fav") == frozenset({"bob"}) and sigma.group == frozenset()
    sigma = apply_arch_event(sigma, ArchEvent("ungroupact", 2, user="alice", tar="bob", action="fav"))
    assert granted(sigma, "fav") == frozenset() and sigma.group == frozenset()
    member = apply_arch_event(sigma, ArchEvent("grouphas", 3, user="alice", tar="bob"))
    assert member.group == {"bob"} and member.can == sigma.can
    left = apply_arch_event(member, ArchEvent("ungrouphas", 4, user="alice", tar="bob"))
    assert left.group == frozenset() and left.can == sigma.can


def test_addfriends_edits_all_alias_actions_and_group():
    sigma = initial_state(make_arch(), ["alice", "bob"])
    e = ArchEvent("addfriends", 1, user="alice", tar="bob", actions=("fav", "link"))
    sigma = apply_arch_event(sigma, e)
    assert granted(sigma, "fav") == frozenset({"bob"})
    assert granted(sigma, "link") == frozenset({"bob"})
    assert "bob" in sigma.group
    sigma = apply_arch_event(sigma, ArchEvent("unfriends", 2, user="alice", tar="bob", actions=("fav", "link")))
    assert granted(sigma, "fav") == frozenset() and "bob" not in sigma.group


def test_act1_guard_and_receivers():
    sigma = initial_state(make_arch(perms=PERMS), ["alice", "bob"])
    # permitted performer: the by-set receives the value
    after = apply_arch_event(sigma, ArchEvent("act1", 1, user="alice", action="fav", term=X, value="v"))
    assert after.user("bob").value(X) == "v"
    assert after.user("alice").value(X) is None  # performer not in own by-set
    # performer outside the can-group: no binding changes
    blocked = apply_arch_event(
        initial_state(make_arch(), ["alice", "bob"]),
        ArchEvent("act1", 1, user="alice", action="fav", term=X, value="v"),
    )
    assert blocked.user("bob").value(X) is None


def test_unact1_clears_receivers():
    sigma = initial_state(make_arch(perms=PERMS), ["alice", "bob"])
    sigma = apply_arch_event(sigma, ArchEvent("act1", 1, user="alice", action="fav", term=X, value="v"))
    sigma = apply_arch_event(sigma, ArchEvent("unact1", 2, user="alice", action="fav", term=X))
    assert sigma.user("bob").value(X) is None


def test_unact1_clears_the_holders_of_its_base_action():
    # Derived architectures key `has by` by base action only; the un-action
    # carries its own name and its own `can` grant.
    perms = Perms(
        can={"fav": frozenset({"alice"}), "unfav": frozenset({"alice"})},
        by={"fav": {"alice": frozenset({"bob"})}},
    )
    sigma = initial_state(make_arch(extra=[UnAct1("?i", "unfav", X)], perms=perms), ["alice", "bob"])
    sigma = apply_arch_event(sigma, ArchEvent("act1", 1, user="alice", action="fav", term=X, value="v"))
    assert sigma.user("bob").value(X) == "v"
    sigma = apply_arch_event(sigma, ArchEvent("unact1", 2, user="alice", action="unfav", term=X))
    assert sigma.user("bob").value(X) is None
    assert sigma.user("bob").t == 2


def test_unact2_clears_the_holders_of_its_base_action():
    perms = Perms(
        can={"link": frozenset({"alice"}), "unlink": frozenset({"alice"})},
        by={"link": {"alice": frozenset({"bob", "carol"})}},
        been={"link": {"bob": frozenset({"carol"})}},
    )
    pa = Architecture(
        activities=frozenset({Act2("?i", "?j", "link", X), UnAct2("?i", "?j", "unlink", X)}),
        perms=perms,
        sets=SETS,
    )
    sigma = initial_state(pa, ["alice", "bob", "carol"])
    sigma = apply_arch_event(
        sigma, ArchEvent("act2", 1, user="alice", tar="bob", action="link", term=X, value="v")
    )
    assert sigma.user("carol").value(X) == "v"
    sigma = apply_arch_event(
        sigma, ArchEvent("unact2", 2, user="alice", tar="bob", action="unlink", term=X)
    )
    assert sigma.user("carol").value(X) is None


def test_arch_perms_is_the_model_table():
    assert ArchPerms is Perms


def test_act2_intersection_receivers():
    perms = Perms(
        can={"link": frozenset({"alice"})},
        by={"link": {"alice": frozenset({"bob", "carol"})}},
        been={"link": {"bob": frozenset({"carol"})}},
    )
    pa = Architecture(activities=frozenset({Act2("?i", "?j", "link", X)}), perms=perms)
    sigma = initial_state(pa, ["alice", "bob", "carol"])
    sigma = apply_arch_event(
        sigma, ArchEvent("act2", 1, user="alice", tar="bob", action="link", term=X, value="v")
    )
    assert sigma.user("carol").value(X) == "v"
    assert sigma.user("bob").value(X) is None


def test_delete_clears_every_user():
    sigma = initial_state(make_arch(perms=PERMS), ["alice", "bob"])
    sigma = run_arch_trace(
        [
            ArchEvent("own", 1, user="alice", term=X, value="v"),
            ArchEvent("possess", 2, user=SP, term=X, value="v"),
            ArchEvent("delete", 3, user=SP, term=X),
        ],
        sigma,
    )
    assert all(st.value(X) is None for st in sigma.users)


def test_event_orders_reaching_the_same_bindings_give_one_state():
    pa = make_arch(perms=PERMS)
    own = ArchEvent("own", 1, user="alice", term=X, value="v")
    possess = ArchEvent("possess", 1, user=SP, term=X, value="v")
    group = ArchEvent("groupact", 1, user="bob", tar="alice", action="fav")
    init = initial_state(pa, ["alice", "bob"])
    one = run_arch_trace([own, possess, group], init)
    other = run_arch_trace([group, possess, own], init)
    assert one == other and hash(one) == hash(other)
    # A binding that was cleared is the same as one never made.
    delete = ArchEvent("delete", 2, user=SP, term=X)
    assert run_arch_trace([own, delete], init) == run_arch_trace([possess, delete], init)
    # The step rebuilds only the users the event touches.
    after = apply_arch_event(init, own)
    assert after.user("bob") is init.user("bob") and after.user(SP) is init.user(SP)


def test_unknown_user_rejected_with_index():
    sigma = initial_state(make_arch(), ["alice"])
    own = ArchEvent("own", 1, user="alice", term=X, value="v")
    with pytest.raises(ArchSemanticsError) as err:
        run_arch_trace([own, ArchEvent("own", 2, user="zed", term=X, value="v")], sigma)
    assert str(err.value) == "event 2: unknown user 'zed' in own event"
    assert err.value.index == 2


def test_unknown_kind_rejected_with_index():
    sigma = initial_state(make_arch(), ["alice"])
    with pytest.raises(ArchSemanticsError) as err:
        run_arch_trace([ArchEvent("bogus", 1)], sigma)
    assert str(err.value) == "event 1: unknown event kind 'bogus'"
    assert err.value.index == 1


# --- compatibility ----------------------------------------------------------


def test_compatible_trace_accepted():
    pa = make_arch(perms=PERMS)
    trace = [
        ArchEvent("own", 1, user="alice", term=X, value="v"),
        ArchEvent("possess", 2, user=SP, term=X, value="v"),
        ArchEvent("act1", 3, user="bob", action="fav", term=X, value="v"),
        ArchEvent("deletereq", 4, user="bob", term=X),
        ArchEvent("delete", 5, user=SP, term=X),
    ]
    ok, idx = is_compatible(trace, pa)
    assert ok and idx is None


def test_incompatible_event_located():
    pa = make_arch()
    trace = [
        ArchEvent("own", 1, user="alice", term=X, value="v"),
        ArchEvent("own", 2, user="bob", term=X, value="v"),  # Own is alice-only
    ]
    ok, idx = is_compatible(trace, pa)
    assert not ok and idx == 2


def test_possess_one_of_matches_any_branch():
    pa = Architecture(
        activities=frozenset({PossessOneOf(frozenset({X, enc(X, KeyVar("sp"))}))})
    )
    ok, _ = is_compatible([ArchEvent("possess", 1, user=SP, term=enc(X, KeyVar("sp")), value="v")], pa)
    assert ok
    ok, idx = is_compatible([ArchEvent("possess", 1, user=SP, term=KeyVar("sp"), value="v")], pa)
    assert not ok and idx == 1


# --- one schema per activity class --------------------------------------------

X_OW = Var(ow="?o", ds=frozenset({"alice", "bob"}), ident="d1")
SP_KEY = KeyVar("sp")

# One activity per class, with pattern users.  Possess and PossessOneOf both
# instantiate to `possess` events, so their samples name different terms.
SCHEMA_SAMPLES = {
    Own: Own("?i", X_OW),
    Possess: Possess(X_OW),
    PossessOneOf: PossessOneOf(frozenset({enc(X_OW, SP_KEY), SP_KEY})),
    GroupAct: GroupAct("?i", "?j", "fav"),
    UnGroupAct: UnGroupAct("?i", "?j", "fav"),
    GroupHas: GroupHas("?i", "?j"),
    UnGroupHas: UnGroupHas("?i", "?j"),
    AddFriends: AddFriends("?i", "?j", ("fav", "link")),
    UnFriends: UnFriends("?i", "?j", ("fav", "link")),
    DeleteReq: DeleteReq("?i", X_OW),
    Delete: Delete(X_OW, 3),
    Act1: Act1("?i", "fav", X_OW),
    UnAct1: UnAct1("?i", "unfav", X_OW),
    Act2: Act2("?i", "?j", "link", X_OW),
    UnAct2: UnAct2("?i", "?j", "unlink", X_OW),
}

# Events each sample instantiates to over two users and two values.
SCHEMA_EVENT_COUNTS = {
    Own: 8, Possess: 4, PossessOneOf: 4, GroupAct: 4, UnGroupAct: 4, GroupHas: 4,
    UnGroupHas: 4, AddFriends: 4, UnFriends: 4, DeleteReq: 8, Delete: 4, Act1: 8,
    UnAct1: 8, Act2: 16, UnAct2: 16,
}


def test_schema_samples_cover_every_activity_class():
    assert {s.cls for s in ACTIVITIES.values()} == set(SCHEMA_SAMPLES) == set(SCHEMA_EVENT_COUNTS)
    assert all(head == s.cls.__name__ for head, s in ACTIVITIES.items())


@pytest.mark.parametrize("cls", list(SCHEMA_SAMPLES), ids=lambda c: c.__name__)
def test_activity_schema(cls):
    act = SCHEMA_SAMPLES[cls]
    pa = Architecture(activities=frozenset({act}), sets=SETS)
    assert parse_architecture(serialize_architecture(pa)) == pa

    events = instantiate_events(pa, 1, Universe(users=("alice", "bob"), values=("v", "w")))
    assert len(events) == SCHEMA_EVENT_COUNTS[cls]
    assert is_compatible(events, pa) == (True, None)
    for other_cls, other in SCHEMA_SAMPLES.items():
        if other_cls is cls:
            continue
        only_other = Architecture(activities=frozenset({other}))
        accepted = [e for e in events if is_compatible([e], only_other)[0]]
        assert accepted == [], f"{other_cls.__name__} accepts {cls.__name__} events"


# --- enumeration vs a naive oracle ------------------------------------------


def naive_reachable(pa, max_len, universe):
    """Oracle: breadth-first search that instantiates the events again at
    every depth and takes each through ``apply_arch_event``, dropping an event
    the step rejects; the states in the order they are first reached."""
    init = initial_state(pa, universe.users)
    reached = {init: None}
    frontier = [init]
    for depth in range(1, max_len + 1):
        events = instantiate_events(pa, depth, universe)
        nxt = []
        for sigma in frontier:
            for e in events:
                try:
                    out = apply_arch_event(sigma, e)
                except ArchSemanticsError:
                    continue
                if out not in reached:
                    reached[out] = None
                    nxt.append(out)
        frontier = nxt
    return list(reached)


# Both sides of each comparison below run in one process, so they see one
# iteration order of ``pa.activities`` and must list the states alike.


@pytest.mark.parametrize("max_len", [1, 2, 3])
def test_enumeration_matches_naive_oracle(max_len):
    pa = make_arch(extra=[GroupAct("alice", "?tar", "fav")], perms=PERMS)
    universe = Universe(users=("alice", "bob"))
    states = enumerate_states(pa, max_len, universe)
    assert states == naive_reachable(pa, max_len, universe)
    # The same states as folding every event sequence of length <= max_len.
    init = initial_state(pa, universe.users)
    levels = [instantiate_events(pa, depth, universe) for depth in range(1, max_len + 1)]
    traces = (tr for k in range(max_len + 1) for tr in itertools.product(*levels[:k]))
    assert set(states) == {run_arch_trace(list(tr), init) for tr in traces}


def test_enumeration_matches_naive_oracle_on_steps_that_change_nothing():
    """An activity of a user outside the universe (no state can take it), a
    request, an un-action whose performer is never granted, and a delete."""
    pa = Architecture(
        activities=frozenset({Own("zed", X), Possess(X), DeleteReq("?i", X),
                              UnAct1("?i", "unfav", X), Act1("?i", "fav", X), Delete(X, dd=3)}),
        perms=PERMS,
    )
    universe = Universe(users=("alice", "bob"))
    for max_len in range(4):
        states = enumerate_states(pa, max_len, universe)
        assert states == naive_reachable(pa, max_len, universe)
    assert len(states) > 1


def test_enumeration_matches_naive_oracle_on_two_values_and_friend_events():
    """Two values per term, grants that friend events add and take back, an
    un-action and a delete, up to bound 4, where each user's t needs 3 bits."""
    pa = Architecture(
        activities=frozenset({Own("alice", X), Possess(X), Act1("?i", "fav", X),
                              UnAct1("?i", "unfav", X), AddFriends("alice", "?tar", ("fav",)),
                              UnFriends("alice", "?tar", ("fav",)), Delete(X, dd=3)}),
        perms=Perms(can={"fav": frozenset({"alice"}), "unfav": frozenset({"alice", "bob"})},
                    by={"fav": {"alice": frozenset({"bob"}), "bob": frozenset({"alice", "bob"})}}),
        sets=SETS,
    )
    universe = Universe(users=("alice", "bob"), values=("v", "w"))
    for max_len in range(5):
        states = enumerate_states(pa, max_len, universe)
        assert states == naive_reachable(pa, max_len, universe), max_len
    assert len(states) == 2883
    assert {st.t for s in states for st in s.users} == set(range(5))
    assert any(st.value(X) == "w" for s in states for st in s.users)
    assert any(("fav", "bob") in s.can for s in states) and any(s.group for s in states)


def test_enumeration_matches_naive_oracle_on_generated_models():
    for seed in range(100):
        rng = random.Random(seed)
        model = random_model(rng)
        pa = derive_architecture(compliant_trace(model, rng), MappingContext(model))
        universe = Universe(users=tuple(sorted(model.users())))
        assert enumerate_states(pa, 3, universe) == naive_reachable(pa, 3, universe), seed


def test_enumeration_instantiates_the_events_once(monkeypatch):
    import datactl.architecture

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return instantiate_events(*args, **kwargs)

    monkeypatch.setattr(datactl.architecture, "instantiate_events", counting)
    pa = make_arch(extra=[GroupAct("alice", "?tar", "fav")], perms=PERMS)
    enumerate_states(pa, 4, Universe(users=("alice", "bob")))
    assert len(calls) == 1


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "facebook"


def _fixture(name):
    """A fixture architecture and the universe the ``enumerate`` command searches."""
    pa = parse_architecture((FIXTURES / name).read_text(encoding="utf-8"))
    return pa, Universe(users=tuple(sorted(_concrete_users(pa))))


@pytest.mark.parametrize("name, max_len, count", [
    ("simplified.dca", 4, 1688), ("simplified.dca", 5, 3805), ("full.dca", 3, 7932),
])
def test_fixture_state_counts(name, max_len, count):
    """The reachable-state counts of the fixtures, over the universe the
    ``enumerate`` command searches, in the oracle's order; no state is
    returned twice."""
    pa, universe = _fixture(name)
    states = enumerate_states(pa, max_len, universe)
    assert len(states) == len(set(states)) == count
    assert states == naive_reachable(pa, max_len, universe)


# Prints the states of an architecture at a bound in the search's order, each
# set sorted, so that two runs print the same text exactly when the search
# visits the same states in the same order.
_PRINT_STATES = """
import sys
from pathlib import Path
from datactl.architecture import Universe, enumerate_states, serialize_term
from datactl.cli import _concrete_users
from datactl.dsl import parse_architecture
pa = parse_architecture(Path(sys.argv[1]).read_text(encoding="utf-8"))
for s in enumerate_states(pa, int(sys.argv[2]), Universe(users=tuple(sorted(_concrete_users(pa))))):
    print([(u.user, sorted((serialize_term(term), v) for term, v in u.bindings), u.t)
           for u in s.users], sorted(s.can), sorted(s.group))
"""


def test_search_order_does_not_depend_on_the_hash_seed():
    """Each interpreter salts string hashes with its own seed; the order of
    the search comes from the architecture's text alone.  The grant bits are
    laid out from a frozenset, so full.dca also covers that layout and the
    per-guard-value step lists."""
    src = Path(__file__).resolve().parent.parent / "src"
    for name, bound, count in (("simplified.dca", "2", 105), ("full.dca", "3", 7932)):
        printed = [
            subprocess.run([sys.executable, "-c", _PRINT_STATES, str(FIXTURES / name), bound],
                           env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
                           capture_output=True, text=True, check=True, timeout=120).stdout
            for seed in ("0", "1", "2")
        ]
        assert printed[0].count("\n") == count, name
        digests = {hashlib.sha256(text.encode()).hexdigest() for text in printed}
        assert len(digests) == 1, name


def test_full_fixture_state_count_at_length_4():
    """Counted only: the oracle takes seconds at this bound."""
    pa, universe = _fixture("full.dca")
    assert len(enumerate_states(pa, 4, universe)) == 61689


def test_enumeration_limit_is_the_state_count():
    pa, universe = _fixture("simplified.dca")
    assert len(enumerate_states(pa, 4, universe, max_states=1688)) == 1688
    with pytest.raises(EnumerationLimit, match="more than 1687 states within bound 4"):
        enumerate_states(pa, 4, universe, max_states=1687)


# simplified.dca at bound 4: the number of states reached within each depth.
RUNNING_COUNTS = (1, 13, 105, 532, 1688)


def searched_until_the_cap(pa, universe, bound, max_states):
    """How many states the search yields, and the cap's message if it trips."""
    _, reached = search_states(pa, bound, universe, max_states)
    count = 0
    try:
        for _ in reached:
            count += 1
    except EnumerationLimit as err:
        return count, str(err)
    return count, None


def test_the_cap_trips_only_on_a_new_state_past_it():
    """The initial state is always yielded; a depth that reaches no new state
    never trips the cap; a depth trips it when its new states take the count
    past it, after every shallower state has been yielded."""
    for cap in (0, 1):
        assert searched_until_the_cap(Architecture(), Universe(users=("u1",)), 2, cap) == (1, None)
    pa, universe = _fixture("simplified.dca")
    assert searched_until_the_cap(pa, universe, 4, 0) == (1, "more than 0 states within bound 4")
    for depth, total in enumerate(RUNNING_COUNTS):
        tripped = None if depth == 4 else f"more than {total} states within bound 4"
        assert searched_until_the_cap(pa, universe, 4, total) == (total, tripped), depth
        if depth:
            assert searched_until_the_cap(pa, universe, 4, total - 1) == (
                RUNNING_COUNTS[depth - 1], f"more than {total - 1} states within bound 4"), depth


def test_enumeration_limit_trips():
    pa = make_arch(perms=PERMS)
    with pytest.raises(EnumerationLimit):
        enumerate_states(pa, 4, Universe(users=("alice", "bob")), max_states=5)


def test_enumeration_rejects_inconsistent_architecture():
    pa = Architecture(activities=frozenset({Own("alice", X), Own("bob", X)}))
    with pytest.raises(ArchSemanticsError):
        enumerate_states(pa, 1, Universe(users=("alice", "bob")))


def test_instantiation_expands_patterns_over_universe():
    pa = Architecture(activities=frozenset({DeleteReq("?i", X)}))
    events = instantiate_events(pa, 1, Universe(users=("alice", "bob")))
    assert {e.user for e in events} == {"alice", "bob"}


# --- kernel invariants -------------------------------------------------------


def assert_first_reached_at_the_largest_t(pa, bound, universe):
    """The search at each smaller bound lists a prefix of the states at
    ``bound``, so the depth a state is first reached at is the smallest bound
    whose list holds it.  That depth is the state's largest user ``t``, which
    therefore never decreases along the search order."""
    states = enumerate_states(pa, bound, universe)
    within = [len(enumerate_states(pa, d, universe)) for d in range(bound + 1)]
    depths = [next(d for d, n in enumerate(within) if i < n) for i in range(len(states))]
    assert [max(u.t for u in s.users) for s in states] == depths
    assert depths == sorted(depths)
    for d, n in enumerate(within):
        assert enumerate_states(pa, d, universe) == states[:n]


@pytest.mark.parametrize("name", ["simplified.dca", "full.dca"])
def test_each_fixture_state_is_first_reached_at_its_largest_t(name):
    pa, universe = _fixture(name)
    assert_first_reached_at_the_largest_t(pa, 3, universe)


def test_each_generated_state_is_first_reached_at_its_largest_t():
    for seed in range(100):
        rng = random.Random(seed)
        model = random_model(rng)
        pa = derive_architecture(compliant_trace(model, rng), MappingContext(model))
        assert_first_reached_at_the_largest_t(pa, 3, Universe(users=tuple(sorted(model.users()))))


def test_grants_get_bits_only_when_some_state_lacks_them():
    """``fav`` for alice is held initially and no step moves it: it gets no
    bit, every state holds it and the step it guards is always enabled.
    ``share`` for bob is held initially and a group event takes it away: it
    keeps its bit.  ``tag`` for bob is never held and never added: the step
    it guards is dropped."""
    pa = Architecture(
        activities=frozenset({Own("alice", X), Act1("alice", "fav", X), Act1("bob", "share", X),
                              UnGroupAct("alice", "bob", "share"), Act1("bob", "tag", X)}),
        perms=Perms(can={"fav": frozenset({"alice"}), "share": frozenset({"bob"})},
                    by={"fav": {"alice": frozenset({"bob"})}, "share": {"bob": frozenset({"alice"})},
                        "tag": {"bob": frozenset({"alice"})}}),
    )
    universe = Universe(users=("alice", "bob"))
    kernel, _ = search_states(pa, 3, universe)
    _, _, can = kernel.reads[-2]
    assert can.labels == (("share", "bob"),)
    assert can.fixed == {("fav", "alice")}
    # own, fav (guard 0), share (guarded by its bit) and the group event; no tag step.
    assert sorted(guard for guard, *_ in kernel.steps) == [0, 0, 0, can.bit["share", "bob"]]
    states = enumerate_states(pa, 3, universe)
    assert states == naive_reachable(pa, 3, universe)
    assert all(("fav", "alice") in s.can for s in states)
    assert any(s.user("bob").value(X) == "v" for s in states)  # alice took fav
    assert any(("share", "bob") not in s.can for s in states)


@pytest.mark.parametrize("name", ["simplified.dca", "full.dca"])
def test_fixture_kernel_width(name):
    """A state of either fixture at bound 5 is 26 bits wide: 12 binding and
    t bits, 12 grant bits and 2 member bits.  Twelve of the grants the
    initial state holds no step moves, so they get no bit."""
    pa, universe = _fixture(name)
    kernel, _ = search_states(pa, 5, universe)
    assert max(offset + mask.bit_length() for offset, mask, _ in kernel.reads) == 26
