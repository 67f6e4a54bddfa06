"""Abstract events, the per-datum state, and the trace transition function.

The state is a plain map from each datum to either an entry (time, value,
policy, holders) or the undefined marker ``None``; a datum it does not name is
undefined too.  Transitions are pure: ``step`` maps one datum's entry to its
successor, so a state differs from its predecessor at most at the event's
datum.  An un-action takes back what the action declared with it gives: the
step reads that pair from the model's activity sets.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .model import SP, ActivitySets, DataRef, Policy, record

# Event kinds.  ``act1``/``unact1``/``act2``/``unact2`` carry the declared
# action name; ``groupact``/``ungroupact`` carry the action whose can-group is
# being edited.
OWN = "own"
STORE = "store"
USE = "use"
DELETEREQ = "deletereq"
DELETE = "delete"
GROUPACT = "groupact"
UNGROUPACT = "ungroupact"
GROUPHAS = "grouphas"
UNGROUPHAS = "ungrouphas"
ACT1 = "act1"
UNACT1 = "unact1"
ACT2 = "act2"
UNACT2 = "unact2"

ACT_KINDS = (ACT1, UNACT1, ACT2, UNACT2)
GROUP_KINDS = (GROUPACT, UNGROUPACT, GROUPHAS, UNGROUPHAS)
# The kinds that take back what their counterpart kind gives.
UNDO_KINDS = (UNGROUPACT, UNGROUPHAS, UNACT1, UNACT2)
# The name prefix of each group kind; the rest of the name is the action.
GROUP_PREFIX = {GROUPACT: "group", UNGROUPACT: "ungroup"}


def event_name(kind: str, action: str | None) -> str:
    """The name of an event in traces of either level: ``group<act>`` or
    ``ungroup<act>`` for a group kind, the action for a declared action's kind,
    and the kind itself for the rest."""
    prefix = GROUP_PREFIX.get(kind)
    if prefix is not None:
        return prefix + action  # type: ignore[operator]
    return action if kind in ACT_KINDS else kind  # type: ignore[return-value]


class SemanticsError(Exception):
    """A trace event that the transition function rejects."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message if index is None else f"event {index}: {message}")


class AbstractEvent(NamedTuple):
    """One trace event.  A named tuple, immutable like a frozen dataclass but
    built without a ``__setattr__`` per field: the parser builds one per
    event."""

    kind: str
    t: int
    dt: DataRef
    actor: str | None = None  # the originating principal ("or" in surface syntax)
    tar: str | None = None
    action: str | None = None  # declared action for act*/group* kinds
    purposes: frozenset[str] | None = None  # use only
    value: str | None = None  # own only
    policy: Policy | None = None  # own only: the policy attached at input time

    @property
    def surface_name(self) -> str:
        """The event name as written in traces, e.g. ``grouplike`` or ``tag``."""
        return event_name(self.kind, self.action)


@record
class EventTemplate:
    """One entry of the possible-event inventory."""

    kind: str
    action: str | None = None
    binary: bool = False

    @property
    def name(self) -> str:
        return event_name(self.kind, self.action)


class StateEntry(NamedTuple):
    """One defined datum's entry; a named tuple, as the fold builds one per
    step that changes the entry."""

    t: int
    v: str | None
    policy: Policy
    h_has: frozenset[str]


def possible_events(sets: ActivitySets) -> list[EventTemplate]:
    """The event inventory under the given activity sets, the same for every
    datum: one template per predefined event, one group/ungroup pair per base
    action, and one template per declared action.  Trace names resolve through
    it, so a valid model gives each template its own name."""
    templates = [EventTemplate(kind) for kind in (OWN, STORE, USE, DELETEREQ, DELETE)]
    for name in sets.base_names():
        templates += [EventTemplate(GROUPACT, name, True), EventTemplate(UNGROUPACT, name, True)]
    templates += [EventTemplate(GROUPHAS, binary=True), EventTemplate(UNGROUPHAS, binary=True)]
    for pairs, act, unact, binary in ((sets.unary, ACT1, UNACT1, False),
                                      (sets.binary, ACT2, UNACT2, True)):
        templates += [EventTemplate(act, base, binary) for base, _ in pairs]
        templates += [EventTemplate(unact, undo, binary) for _, undo in pairs]
    return templates


def step(
    entry: StateEntry | None, e: AbstractEvent, j: int, sets: ActivitySets
) -> StateEntry | None:
    """One transition of the event's datum: its entry before ``e`` to its
    entry after, ``None`` standing for undefined.  A step that changes nothing
    returns ``entry`` itself.  ``j`` is the event's trace position, for error
    messages.  An un-action withdraws the has-grants of the action that
    ``sets`` pairs it with.
    """
    kind = e.kind

    if kind == OWN:
        if entry is not None:
            raise SemanticsError(f"duplicate own for datum {e.dt.ident!r}", j)
        if e.policy is None:
            raise SemanticsError("own event carries no policy", j)
        return StateEntry(
            t=e.t,
            v=e.value,
            policy=e.policy,
            h_has=frozenset({e.actor}),
        )

    if entry is None:
        raise SemanticsError(f"{e.surface_name} on undefined datum {e.dt.ident!r}", j)
    pol = entry.policy

    if kind == USE:
        return entry  # usage never changes the state

    if kind == STORE:
        if pol.storage.sp_readable():
            return StateEntry(e.t, entry.v, pol, entry.h_has | {SP})
        return entry

    if kind == DELETEREQ:
        if pol.dm.delay("man") is None:
            raise SemanticsError(
                f"deletereq for {e.dt.ident!r} but its policy allows no manual deletion", j
            )
        return entry  # request itself leaves the state untouched

    if kind == DELETE:
        return None

    move = frozenset.difference if kind in UNDO_KINDS else frozenset.union

    if kind in GROUP_KINDS:
        perms, tar = pol.perms, {e.tar}
        if kind in (GROUPACT, UNGROUPACT):
            perms = perms._replace(can={**perms.can, e.action: move(perms.can_do(e.action), tar)})
        else:
            perms = perms._replace(group=move(perms.group, tar))
        return StateEntry(e.t, entry.v, pol._replace(perms=perms), move(entry.h_has, tar))

    if kind in ACT_KINDS:
        if e.actor not in pol.perms.can_do(e.action):
            return entry  # permission guard: unauthorized actions are no-ops
        base = sets.base_of(e.action) if kind in UNDO_KINDS else e.action
        held = pol.perms.holders(base, e.actor, e.tar if kind in (ACT2, UNACT2) else None)
        return StateEntry(e.t, entry.v, pol, move(entry.h_has, held))

    raise SemanticsError(f"unknown event kind {kind!r}", j)


def iter_states(
    trace: list[AbstractEvent], sets: ActivitySets
) -> Iterator[dict[DataRef, StateEntry | None]]:
    """All prefix states, starting with the all-undefined one; len(trace)+1
    items.  An event that changes its datum's entry makes a new map."""
    state: dict[DataRef, StateEntry | None] = {}
    yield state
    for j, e in enumerate(trace, start=1):
        before = state.get(e.dt)
        after = step(before, e, j, sets)
        if after is not before:
            state = {**state, e.dt: after}
        yield state


def run_trace(trace: list[AbstractEvent], sets: ActivitySets) -> dict[DataRef, StateEntry | None]:
    """The state after the whole trace."""
    for state in iter_states(trace, sets):  # yields at least the initial state
        pass
    return state
