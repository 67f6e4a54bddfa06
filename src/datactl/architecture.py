"""The architecture level: terms, activity relations, instantiated event
traces, the per-user state semantics, and bounded state-space enumeration.

User and index positions in activities may hold pattern variables (tokens
starting with ``?``); these match any concrete token during compatibility
checking and are instantiated over the finite universe during enumeration.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Mapping, NamedTuple, Union, get_args

from .model import SP, Perms

BOTTOM = None  # undefined variable value


def is_pattern(token: str) -> bool:
    return token.startswith("?")


def match_token(pattern: str, concrete: str) -> bool:
    return is_pattern(pattern) or pattern == concrete


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    """A data variable, indexed by owner, subject set, and identifier.

    ``ds`` may be a concrete frozenset or a pattern token.
    """

    ow: str
    ds: Union[frozenset[str], str]
    ident: str

    def matches(self, other: "Var") -> bool:
        if not match_token(self.ow, other.ow):
            return False
        if isinstance(self.ds, str):
            if not is_pattern(self.ds):
                return False
        elif self.ds != other.ds:
            return False
        return match_token(self.ident, other.ident)


@dataclass(frozen=True)
class KeyVar:
    """A principal's key variable."""

    owner: str

    def matches(self, other: "KeyVar") -> bool:
        return match_token(self.owner, other.owner)


@dataclass(frozen=True)
class Func:
    """A symbolic function application (enc, hash, sig) over terms."""

    name: str
    args: tuple["Term", ...]

    def matches(self, other: "Func") -> bool:
        return (
            self.name == other.name
            and len(self.args) == len(other.args)
            and all(match_term(a, b) for a, b in zip(self.args, other.args))
        )


Term = Union[Var, KeyVar, Func]


def match_term(pattern: Term, concrete: Term) -> bool:
    if type(pattern) is not type(concrete):
        return False
    return pattern.matches(concrete)  # type: ignore[union-attr]


def enc(payload: Term, key: Term) -> Func:
    return Func("enc", (payload, key))


# ---------------------------------------------------------------------------
# Activities


@dataclass(frozen=True)
class Own:
    user: str
    term: Term


@dataclass(frozen=True)
class Possess:
    term: Term  # possession is always the provider's


@dataclass(frozen=True)
class PossessOneOf:
    terms: frozenset[Term]


@dataclass(frozen=True)
class GroupAct:
    user: str
    tar: str
    action: str


@dataclass(frozen=True)
class UnGroupAct:
    user: str
    tar: str
    action: str


@dataclass(frozen=True)
class GroupHas:
    user: str
    tar: str


@dataclass(frozen=True)
class UnGroupHas:
    user: str
    tar: str


@dataclass(frozen=True)
class AddFriends:
    user: str
    tar: str
    actions: tuple[str, ...]


@dataclass(frozen=True)
class UnFriends:
    user: str
    tar: str
    actions: tuple[str, ...]


@dataclass(frozen=True)
class DeleteReq:
    user: str
    term: Term


@dataclass(frozen=True)
class Delete:
    term: Term
    dd: int  # executed by the provider within this delay


@dataclass(frozen=True)
class Act1:
    user: str
    action: str
    term: Term


@dataclass(frozen=True)
class UnAct1:
    user: str
    action: str
    term: Term


@dataclass(frozen=True)
class Act2:
    user: str
    tar: str
    action: str
    term: Term


@dataclass(frozen=True)
class UnAct2:
    user: str
    tar: str
    action: str
    term: Term


Activity = Union[
    Own,
    Possess,
    PossessOneOf,
    GroupAct,
    UnGroupAct,
    GroupHas,
    UnGroupHas,
    AddFriends,
    UnFriends,
    DeleteReq,
    Delete,
    Act1,
    UnAct1,
    Act2,
    UnAct2,
]


# ---------------------------------------------------------------------------
# The activity schema
#
# Every activity has the surface shape ``Head[index...](args...)`` and its
# dataclass fields are that shape: ``user`` and ``tar`` are index slots, and
# ``action``, ``actions``, ``term``, ``terms`` and ``dd`` are argument slots,
# in field order.  Parsing, printing, matching and instantiation read the
# slots from the registry below.

INDEX_SLOTS = ("user", "tar")


class ActivitySchema(NamedTuple):
    cls: type
    kind: str  # the ArchEvent kind of the activity's instances
    index: tuple[str, ...]  # index slot names, in surface order
    args: tuple[str, ...]  # argument slot names, in surface order

    def terms(self, act: Activity) -> tuple[Term, ...]:
        """The terms the activity names, from its ``term`` or ``terms`` slot."""
        if "term" in self.args:
            return (act.term,)  # type: ignore[union-attr]
        if "terms" in self.args:
            return tuple(act.terms)  # type: ignore[union-attr]
        return ()


def _schema(cls: type) -> ActivitySchema:
    names = tuple(f.name for f in fields(cls))
    schema = ActivitySchema(
        cls=cls,
        kind="possess" if cls is PossessOneOf else cls.__name__.lower(),
        index=tuple(n for n in names if n in INDEX_SLOTS),
        args=tuple(n for n in names if n not in INDEX_SLOTS),
    )
    if schema.index + schema.args != names:
        raise TypeError(f"{cls.__name__}: index fields must precede argument fields")
    return schema


ACTIVITIES: dict[str, ActivitySchema] = {
    cls.__name__: _schema(cls) for cls in get_args(Activity)
}
"""Head name -> schema, for every activity class."""


def schema_of(act: Activity) -> ActivitySchema:
    schema = ACTIVITIES.get(type(act).__name__)
    if schema is None or schema.cls is not type(act):
        raise TypeError(f"unknown activity {act!r}")
    return schema


# ---------------------------------------------------------------------------
# Permission tables

ArchPerms = Perms
"""The architecture-level name of :class:`~datactl.model.Perms`: the mapping
copies each datum's tables unchanged, so both levels share one type."""


@dataclass(frozen=True)
class Architecture:
    activities: frozenset[Activity] = frozenset()
    perms: Perms = Perms()

    def of_type(self, cls) -> list[Activity]:
        return [a for a in self.activities if isinstance(a, cls)]


def is_consistent(pa: Architecture) -> tuple[bool, Term | None]:
    """Each variable may be owned by at most one (concrete) user."""
    owners: dict[Term, set[str]] = {}
    for act in pa.of_type(Own):
        owners.setdefault(act.term, set()).add(act.user)
    for term, users in owners.items():
        concrete = {u for u in users if not is_pattern(u)}
        if len(concrete) > 1:
            return False, term
    return True, None


# ---------------------------------------------------------------------------
# Events and states


@dataclass(frozen=True)
class ArchEvent:
    """An instantiated activity with bound values at a point in time."""

    kind: str  # own/possess/groupact/ungroupact/grouphas/ungrouphas/
    #            deletereq/delete/act1/unact1/act2/unact2/addfriends/unfriends
    t: int
    user: str | None = None
    tar: str | None = None
    action: str | None = None
    term: Term | None = None
    value: str | None = None
    actions: tuple[str, ...] = ()  # addfriends/unfriends only


class ArchSemanticsError(Exception):
    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message if index is None else f"event {index}: {message}")


@dataclass
class UserState:
    bindings: dict[Term, str | None] = field(default_factory=dict)
    t: int = 0

    def value(self, term: Term) -> str | None:
        return self.bindings.get(term, BOTTOM)

    def snapshot(self):
        items = tuple(sorted(((repr(k), v) for k, v in self.bindings.items() if v is not None)))
        return (items, self.t)


@dataclass
class GlobalState:
    """Per-user variable states plus the (shared) permission state.

    ``can`` and ``group`` change as group events run; the holder tables never
    change, so they are read from the architecture's ``perms``.
    """

    users: dict[str, UserState | None]
    can: dict[str, frozenset[str]]
    group: frozenset[str]
    perms: Perms

    def clone(self) -> "GlobalState":
        users = {
            u: (None if st is None else UserState(dict(st.bindings), st.t))
            for u, st in self.users.items()
        }
        return GlobalState(
            users=users,
            can=dict(self.can),
            group=self.group,
            perms=self.perms,
        )

    def snapshot(self):
        users = tuple(
            (u, None if st is None else st.snapshot()) for u, st in sorted(self.users.items())
        )
        can = tuple(sorted((a, tuple(sorted(s))) for a, s in self.can.items() if s))
        return (users, can, tuple(sorted(self.group)))


def initial_state(pa: Architecture, users: Iterable[str]) -> GlobalState:
    """All variables undefined; permission state seeded from the architecture's
    tables (absent tables mean all groups start empty)."""
    names = set(users) | {SP}
    return GlobalState(
        users={u: UserState() for u in sorted(names)},
        can=dict(pa.perms.can),
        group=pa.perms.group,
        perms=pa.perms,
    )


def _involved(e: ArchEvent) -> list[str]:
    out = []
    if e.kind in ("own", "groupact", "ungroupact", "grouphas", "ungrouphas", "deletereq",
                  "act1", "unact1", "act2", "unact2", "addfriends", "unfriends"):
        out.append(e.user)
    if e.kind in ("possess", "delete"):
        out.append(SP)
    if e.tar is not None:
        out.append(e.tar)
    return out


def base_action(by: Mapping[str, object], un_action: str) -> str:
    """The action whose ``has by/been`` tables the un-action ``un_action`` reads.

    The tables are keyed by base action, so an un-action clears the holders its
    base action granted; when the un-action has its own entry in ``by`` that
    one wins.  This is the one place that resolves it, for the step function
    and for deduction rules H5/H6 alike.
    """
    if un_action in by:
        return un_action
    if un_action.startswith("un") and un_action[2:] in by:
        return un_action[2:]
    return un_action


def apply_arch_event(sigma: GlobalState, e: ArchEvent, index: int | None = None) -> GlobalState:
    """One step of the event semantics; returns a fresh global state."""
    for user in _involved(e):
        if user not in sigma.users:
            raise ArchSemanticsError(f"unknown user {user!r} in {e.kind} event", index)
        if sigma.users[user] is None:
            raise ArchSemanticsError(
                f"user {user!r} is in the terminated state; no later event may involve them",
                index,
            )

    out = sigma.clone()
    kind = e.kind

    if kind == "own":
        st = out.users[e.user]
        st.bindings[e.term] = e.value
        st.t = e.t
        return out

    if kind == "possess":
        st = out.users[SP]
        st.bindings[e.term] = e.value
        st.t = e.t
        return out

    if kind in ("groupact", "ungroupact"):
        current = out.can.get(e.action, frozenset())
        out.can[e.action] = (
            current | {e.tar} if kind == "groupact" else current - {e.tar}
        )
        out.users[e.user].t = e.t
        return out

    if kind in ("grouphas", "ungrouphas"):
        out.group = out.group | {e.tar} if kind == "grouphas" else out.group - {e.tar}
        out.users[e.user].t = e.t
        return out

    if kind in ("addfriends", "unfriends"):
        for action in e.actions:
            current = out.can.get(action, frozenset())
            out.can[action] = (
                current | {e.tar} if kind == "addfriends" else current - {e.tar}
            )
        out.group = out.group | {e.tar} if kind == "addfriends" else out.group - {e.tar}
        out.users[e.user].t = e.t
        return out

    if kind == "deletereq":
        return out  # the request leaves every state untouched

    if kind == "delete":
        for st in out.users.values():
            if st is None:
                continue
            st.bindings[e.term] = BOTTOM
            st.t = e.t
        return out

    if kind in ("act1", "unact1", "act2", "unact2"):
        if e.user not in sigma.can.get(e.action, frozenset()):
            return out
        granting = kind in ("act1", "act2")
        base = e.action if granting else base_action(sigma.perms.by, e.action)
        tar = e.tar if kind in ("act2", "unact2") else None
        for j in sigma.perms.holders(base, e.user, tar):
            if j not in out.users or out.users[j] is None:
                continue
            st = out.users[j]
            st.bindings[e.term] = e.value if granting else BOTTOM
            st.t = e.t
        return out

    raise ArchSemanticsError(f"unknown event kind {kind!r}", index)


def run_arch_trace(trace: list[ArchEvent], init: GlobalState) -> GlobalState:
    sigma = init
    for i, e in enumerate(trace, start=1):
        try:
            sigma = apply_arch_event(sigma, e, i)
        except ArchSemanticsError as err:
            if err.index is None:
                raise ArchSemanticsError(str(err), i) from err
            raise
    return sigma


# ---------------------------------------------------------------------------
# Compatibility


def _match_any_term(patterns: frozenset[Term], concrete: Term) -> bool:
    return any(match_term(p, concrete) for p in patterns)


# Per slot: the event field it constrains and the test (pattern, concrete).
# ``dd`` constrains no event field.
_SLOT_MATCH = {
    "user": ("user", match_token),
    "tar": ("tar", match_token),
    "action": ("action", operator.eq),
    "actions": ("actions", operator.eq),
    "term": ("term", match_term),
    "terms": ("term", _match_any_term),
}

# Per activity class: its event kind and its (slot, event field, test) plan.
_MATCH_PLAN = {
    schema.cls: (
        schema.kind,
        tuple((slot, *_SLOT_MATCH[slot]) for slot in schema.index + schema.args
              if slot in _SLOT_MATCH),
    )
    for schema in ACTIVITIES.values()
}


def _event_matches(e: ArchEvent, act: Activity) -> bool:
    kind, plan = _MATCH_PLAN[type(act)]
    return e.kind == kind and all(test(getattr(act, slot), getattr(e, attr))
                                  for slot, attr, test in plan)


def is_compatible(trace: list[ArchEvent], pa: Architecture) -> tuple[bool, int | None]:
    """True iff every event instantiates some activity of the architecture;
    otherwise the 1-based index of the first event that does not."""
    for i, e in enumerate(trace, start=1):
        if not any(_event_matches(e, act) for act in pa.activities):
            return False, i
    return True, None


# ---------------------------------------------------------------------------
# Bounded enumeration


class EnumerationLimit(Exception):
    """The state-space guard tripped."""


@dataclass(frozen=True)
class Universe:
    users: tuple[str, ...]
    values: tuple[str, ...] = ("v",)


def _instantiate_users(token: str, universe: Universe) -> list[str]:
    if is_pattern(token):
        return list(universe.users)
    return [token]


def _concrete_terms(term: Term, universe: Universe) -> list[Term]:
    # Pattern positions inside terms are instantiated over the universe's users;
    # identifiers stay symbolic (one variable per declared id pattern).
    if isinstance(term, Var):
        ows = _instantiate_users(term.ow, universe)
        return [replace(term, ow=ow) for ow in ows] if is_pattern(term.ow) else [term]
    return [term]


def instantiate_events(pa: Architecture, t: int, universe: Universe) -> list[ArchEvent]:
    """All concrete events at time ``t`` that instantiate some activity.

    Index slots range over the universe's users (an activity without a
    ``user`` slot is the provider's), term slots over their concrete
    instances, and the value of an event that carries a term over the
    universe's values; ``action`` and ``actions`` are copied.
    """
    events: list[ArchEvent] = []
    for act in pa.activities:
        schema = schema_of(act)
        users = _instantiate_users(getattr(act, "user", SP), universe)
        tars = _instantiate_users(act.tar, universe) if "tar" in schema.index else [None]
        terms = [c for term in schema.terms(act) for c in _concrete_terms(term, universe)]
        values = universe.values if terms else (None,)
        action, actions = getattr(act, "action", None), getattr(act, "actions", ())
        for term in terms or [None]:
            for u, tar, v in itertools.product(users, tars, values):
                events.append(ArchEvent(schema.kind, t, user=u, tar=tar, action=action,
                                        term=term, value=v, actions=actions))
    return events


def enumerate_states(
    pa: Architecture,
    max_len: int,
    universe: Universe,
    max_states: int = 10**6,
) -> list[GlobalState]:
    """All states reachable by compatible traces of length <= ``max_len``,
    with event times fixed to their trace positions.

    Exact within the bound; raises :class:`EnumerationLimit` when the number
    of distinct states would exceed ``max_states``.
    """
    ok, witness = is_consistent(pa)
    if not ok:
        raise ArchSemanticsError(f"inconsistent architecture: {witness} has two owners")

    init = initial_state(pa, universe.users)
    seen = {init.snapshot(): init}
    frontier = [init]
    for depth in range(1, max_len + 1):
        events = instantiate_events(pa, depth, universe)
        next_frontier = []
        for sigma in frontier:
            for e in events:
                try:
                    nxt = apply_arch_event(sigma, e)
                except ArchSemanticsError:
                    continue
                key = nxt.snapshot()
                if key not in seen:
                    if len(seen) >= max_states:
                        raise EnumerationLimit(
                            f"more than {max_states} states within bound {max_len}"
                        )
                    seen[key] = nxt
                    next_frontier.append(nxt)
        frontier = next_frontier
        if not frontier:
            break
    return list(seen.values())
