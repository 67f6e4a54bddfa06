"""The architecture level: terms, activity relations, instantiated event
traces, the per-user state semantics, and bounded state-space enumeration.

User and index positions in activities may hold pattern variables (tokens
starting with ``?``); these match any concrete token during compatibility
checking and are instantiated over the finite universe during enumeration.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Union, get_args

from .model import SP, ActivitySets, Perms, record

BOTTOM = None  # undefined variable value


def is_pattern(token: str) -> bool:
    return token.startswith("?")


def match_token(pattern: str, concrete: str) -> bool:
    return is_pattern(pattern) or pattern == concrete


# ---------------------------------------------------------------------------
# Terms


@record
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


@record
class KeyVar:
    """A principal's key variable."""

    owner: str

    def matches(self, other: "KeyVar") -> bool:
        return match_token(self.owner, other.owner)


@record
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


def _twin(cls: type, name: str) -> type:
    """The un-activity ``name`` of the activity ``cls``: its fields, in a class
    of its own, so that the two never compare equal."""
    return record(type(name, (), {"__annotations__": cls.__annotations__, "__module__": __name__}))


@record
class Own:
    user: str
    term: Term


@record
class Possess:
    term: Term  # possession is always the provider's


@record
class PossessOneOf:
    terms: frozenset[Term]


@record
class GroupAct:
    user: str
    tar: str
    action: str


UnGroupAct = _twin(GroupAct, "UnGroupAct")


@record
class GroupHas:
    user: str
    tar: str


UnGroupHas = _twin(GroupHas, "UnGroupHas")


@record
class AddFriends:
    user: str
    tar: str
    actions: tuple[str, ...]


UnFriends = _twin(AddFriends, "UnFriends")


@record
class DeleteReq:
    user: str
    term: Term


@record
class Delete:
    term: Term
    dd: int  # executed by the provider within this delay


@record
class Act1:
    user: str
    action: str
    term: Term


UnAct1 = _twin(Act1, "UnAct1")


@record
class Act2:
    user: str
    tar: str
    action: str
    term: Term


UnAct2 = _twin(Act2, "UnAct2")


Activity = Union[Own, Possess, PossessOneOf, GroupAct, UnGroupAct, GroupHas, UnGroupHas,
                 AddFriends, UnFriends, DeleteReq, Delete, Act1, UnAct1, Act2, UnAct2]


# ---------------------------------------------------------------------------
# The activity schema
#
# Every activity has the surface shape ``Head[index...](args...)`` and its
# record fields are that shape: ``user`` and ``tar`` are index slots, and
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
            return tuple(sorted(act.terms, key=serialize_term))  # type: ignore[union-attr]
        return ()


def _schema(cls: type) -> ActivitySchema:
    names = cls._fields
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
# Canonical text
#
# A term's, an activity's and a permission table's text in the ``.dca`` syntax,
# which the document printers in ``dsl`` use.  It is one-to-one, so it also
# orders terms and activities the same way in every process, which hashing does
# not.


def serialize_set(items: Iterable[str]) -> str:
    return "{" + ", ".join(sorted(items)) + "}"


def serialize_term(term: Term) -> str:
    if isinstance(term, Var):
        ds = term.ds if isinstance(term.ds, str) else serialize_set(term.ds)
        return f"X{{ow={term.ow}, ds={ds}, id={term.ident}}}"
    if isinstance(term, KeyVar):
        return f"key[{term.owner}]"
    if isinstance(term, Func):
        return f"{term.name}({', '.join(serialize_term(a) for a in term.args)})"
    raise TypeError(f"unknown term {term!r}")


# How to print each argument slot.
_ARG_PRINTERS: dict[str, Callable[..., str]] = {
    "action": str,
    "actions": ", ".join,
    "term": serialize_term,
    "terms": lambda terms: ", ".join(sorted(map(serialize_term, terms))),
    "dd": lambda dd: f"dd={dd}",
}

# Per class: the head, its index slots, and its (argument slot, printer) plan.
_PRINT_PLANS = {
    schema.cls: (head, schema.index, tuple((slot, _ARG_PRINTERS[slot]) for slot in schema.args))
    for head, schema in ACTIVITIES.items()
}


def serialize_activity(act: Activity) -> str:
    plan = _PRINT_PLANS.get(type(act))
    if plan is None:
        raise TypeError(f"unknown activity {act!r}")
    head, index, args = plan
    out = head
    if index:
        out += "[" + ", ".join([getattr(act, slot) for slot in index]) + "]"
    if args:
        out += "(" + ", ".join([show(getattr(act, slot)) for slot, show in args]) + ")"
    return out


def pair_lines(sets: ActivitySets) -> list[str]:
    """The ``unary`` and ``binary`` lines of an actions block, in declaration
    order; policies, architectures and ``compare-archs`` share this printer."""
    return ([f"unary {base}/{undo};" for base, undo in sets.unary]
            + [f"binary {base}/{undo};" for base, undo in sets.binary])


def perm_lines(perms: Perms) -> list[str]:
    """The ``can`` and ``has`` lines of a permission table, in canonical order;
    policy blocks, perms blocks and ``compare-archs`` share this printer."""
    lines = [f"can {action} = {serialize_set(perms.can[action])};"
             for action in sorted(perms.can) if perms.can[action]]
    for which, table in (("by", perms.by), ("been", perms.been)):
        for action in sorted(table):
            for user in sorted(table[action]):
                if table[action][user]:
                    lines.append(f"has {which} {action} {user} = {serialize_set(table[action][user])};")
    if perms.group:
        lines.append(f"has group = {serialize_set(perms.group)};")
    return lines


# ---------------------------------------------------------------------------
# Permission tables

ArchPerms = Perms
"""The architecture-level name of :class:`~datactl.model.Perms`: the mapping
copies each datum's tables unchanged, so both levels share one type."""


@record
class Architecture:
    activities: frozenset[Activity] = frozenset()
    perms: Perms = Perms()
    sets: ActivitySets = ActivitySets()  # the declared (action, un-action) pairs

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


@record
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


class UserState(NamedTuple):
    """One user's variable state: the user, their defined ``(term, value)``
    bindings (an undefined variable has none) and the time of the last event
    that touched them."""

    user: str
    bindings: frozenset[tuple[Term, str]] = frozenset()
    t: int = 0

    def value(self, term: Term) -> str | None:
        return next((v for bound, v in self.bindings if bound == term), BOTTOM)

    def at(self, t: int, term: Term | None = None, value: str | None = BOTTOM) -> "UserState":
        """This state touched at ``t``, with ``term`` bound to ``value`` when a
        term is given (``BOTTOM`` leaves it undefined)."""
        bindings = self.bindings
        if term is not None:
            bindings = frozenset(b for b in bindings if b[0] != term)
            if value is not BOTTOM:
                bindings |= {(term, value)}
        return UserState(self.user, bindings, t)


@record
class GlobalState:
    """Per-user variable states plus the permission state.

    Immutable and hashable, for callers and tests that compare states (the
    search in :func:`search_states` dedupes on its kernel's ints): two
    states are equal when their users' defined bindings and times, their
    ``can`` grants and their ``group`` agree.  ``can`` and ``group`` change as
    group events run; the holder tables and the action pairs never change, so
    ``perms`` and ``sets`` (the architecture's) and ``slot`` (each user's
    position in ``users``) stay out of the comparison.
    """

    users: tuple[UserState, ...]  # one per user, sorted by user
    can: frozenset[tuple[str, str]]  # (action, user) grants
    group: frozenset[str]
    perms: Perms
    sets: ActivitySets
    slot: Mapping[str, int]

    def __eq__(self, other: object) -> bool:
        return self[:3] == other[:3] if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self[:3])

    def user(self, name: str) -> UserState:
        """``name``'s variable state.  A user outside the universe takes part
        in no event, so reads as a user no event has touched."""
        return self.users[self.slot[name]] if name in self.slot else UserState(name)


def initial_state(pa: Architecture, users: Iterable[str]) -> GlobalState:
    """All variables undefined; permission state seeded from the architecture's
    tables (absent tables mean all groups start empty)."""
    names = sorted(set(users) | {SP})
    return GlobalState(
        users=tuple(UserState(u) for u in names),
        can=frozenset((a, u) for a, granted in pa.perms.can.items() for u in granted),
        group=pa.perms.group,
        perms=pa.perms,
        sets=pa.sets,
        slot={u: i for i, u in enumerate(names)},
    )


# Event kind -> whether its events name their performer in ``user``; the
# provider performs the others.
_BY_USER = {schema.kind: "user" in schema.index for schema in ACTIVITIES.values()}


class Step(NamedTuple):
    """An event resolved against what no step changes, the user slots, holder
    tables and action pairs: what taking it does to any state that shares them."""

    guard: tuple[str, str] | None  # the (action, performer) grant it needs in ``can``
    slots: tuple[int, ...]  # the users it touches (see :meth:`UserState.at`)
    term: Term | None = None
    value: str | None = BOTTOM
    grants: frozenset[tuple[str, str]] = frozenset()  # join (or leave) ``can``
    members: frozenset[str] = frozenset()  # join (or leave) ``group``
    adds: bool = True

    def apply(self, sigma: GlobalState, t: int) -> GlobalState:
        """The step taken from ``sigma`` at ``t``: ``sigma`` itself when it
        changes nothing, else a successor sharing each untouched user's state."""
        if not self.slots or (self.guard is not None and self.guard not in sigma.can):
            return sigma
        users = list(sigma.users)
        for i in self.slots:
            users[i] = users[i].at(t, self.term, self.value)
        can, group = sigma.can, sigma.group
        if self.grants or self.members:
            move = frozenset.union if self.adds else frozenset.difference
            can, group = move(can, self.grants), move(group, self.members)
        return GlobalState(tuple(users), can, group, sigma.perms, sigma.sets, sigma.slot)


def resolve_event(sigma: GlobalState, e: ArchEvent, index: int | None = None) -> Step:
    """``e`` as a :class:`Step` on the states that share ``sigma``'s slots,
    tables and pairs, as all the states of one trace or enumeration do.  An
    un-action clears the holders of the action that ``sets`` pairs it with."""
    kind, slot = e.kind, sigma.slot
    named = [e.user if _BY_USER[kind] else SP] if kind in _BY_USER else []
    for user in named + ([] if e.tar is None else [e.tar]):
        if user not in slot:
            raise ArchSemanticsError(f"unknown user {user!r} in {kind} event", index)

    if kind == "own":
        return Step(None, (slot[e.user],), e.term, e.value)
    if kind == "possess":
        return Step(None, (slot[SP],), e.term, e.value)
    if kind == "deletereq":
        return Step(None, ())  # the request leaves every state untouched
    if kind == "delete":
        return Step(None, tuple(slot.values()), e.term)

    if kind in ("act1", "unact1", "act2", "unact2"):
        granting = kind in ("act1", "act2")
        base = e.action if granting else sigma.sets.base_of(e.action)
        tar = e.tar if kind in ("act2", "unact2") else None
        holders = sigma.perms.holders(base, e.user, tar)
        return Step((e.action, e.user), tuple(slot[j] for j in holders if j in slot),
                    e.term, e.value if granting else BOTTOM)

    # A group event: ``e.user`` grants ``e.tar`` actions or makes it a member; the
    # ``un`` kinds take that back.
    if kind in ("groupact", "ungroupact"):
        grants, members = {(e.action, e.tar)}, ()
    elif kind in ("grouphas", "ungrouphas"):
        grants, members = (), {e.tar}
    elif kind in ("addfriends", "unfriends"):
        grants, members = {(a, e.tar) for a in e.actions}, {e.tar}
    else:
        raise ArchSemanticsError(f"unknown event kind {kind!r}", index)
    return Step(None, (slot[e.user],), grants=frozenset(grants), members=frozenset(members),
                adds=not kind.startswith("un"))


def apply_arch_event(sigma: GlobalState, e: ArchEvent, index: int | None = None) -> GlobalState:
    """One step of the event semantics: ``e`` resolved against ``sigma`` and
    taken at ``e.t``."""
    return resolve_event(sigma, e, index).apply(sigma, e.t)


def run_arch_trace(trace: list[ArchEvent], init: GlobalState) -> GlobalState:
    sigma = init
    for i, e in enumerate(trace, start=1):
        sigma = apply_arch_event(sigma, e, i)
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


@record
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
        return [term._replace(ow=ow) for ow in ows] if is_pattern(term.ow) else [term]
    return [term]


def instantiate_events(pa: Architecture, t: int, universe: Universe) -> list[ArchEvent]:
    """All concrete events at time ``t`` that instantiate some activity.

    Index slots range over the universe's users (an activity without a
    ``user`` slot is the provider's), term slots over their concrete
    instances, and the value of an event that carries a term over the
    universe's values; ``action`` and ``actions`` are copied.  The events come
    in the order of the activities' and terms' canonical text, so a search
    over them runs in the same order in every process.
    """
    events: list[ArchEvent] = []
    for act in sorted(pa.activities, key=serialize_activity):
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


class _Field(dict):
    """One field of a kernel state: one bit per label, for the labels held,
    then ``tail`` bits that hold the user's ``t``.  The ``fixed`` labels are
    held in every state, so they get no bit and each part adds them back.
    It maps each value read to the part of a :class:`GlobalState` that the
    value stands for, built once, so equal values decode to one shared part."""

    def __init__(self, offset: int, labels: Iterable, tail: int = 0, user: str | None = None,
                 fixed: frozenset = frozenset()):
        super().__init__()
        self.labels, self.user, self.fixed = tuple(labels), user, fixed
        self.bit = {label: 1 << offset + j for j, label in enumerate(self.labels)}
        self.t_unit = 1 << offset + len(self.labels)  # the lowest bit of ``t``
        self.t_mask = ((1 << tail) - 1) * self.t_unit
        self.read = (offset, (1 << len(self.labels) + tail) - 1, self)
        self.end = offset + len(self.labels) + tail

    def __missing__(self, f: int):
        held = frozenset(label for j, label in enumerate(self.labels) if f >> j & 1)
        part = (held | self.fixed if self.user is None
                else UserState(self.user, held, f >> len(self.labels)))
        self[f] = part
        return part


class _Kernel:
    """The steps of one enumeration compiled to ints: a state is one int and a
    step is three masks, taken as ``if s & guard == guard: s = s & keep | set``.

    From bit 0, each user slot has a field with one bit per ``(term, value)``
    binding that some step writes there, then the user's ``t``, wide enough
    for ``max_len``; then come a field with one bit per ``can`` grant and one
    with one bit per ``group`` member that the initial state holds or some
    step adds.  Nothing else can ever be held, so nothing else needs a bit,
    and a step guarded by a grant that is never held is dropped.  Nor does a
    grant or member that the initial state holds and no step removes: it is
    held in every reachable state, so it is a fixed part of its field, and
    a guard on it is always met (guard 0).
    """

    def __init__(self, init: GlobalState, steps: list[Step], max_len: int):
        writes = [{} for _ in init.users]
        grants, members = dict.fromkeys(init.can), dict.fromkeys(init.group)
        removed: set = set()  # the grants and members some step takes away
        for st in steps:
            if st.term is not None and st.value is not BOTTOM:
                for i in st.slots:
                    writes[i][st.term, st.value] = None
            if st.adds:
                grants.update(dict.fromkeys(st.grants))
                members.update(dict.fromkeys(st.members))
            else:
                removed.update(st.grants, st.members)
        width = max(1, max_len.bit_length())
        users, offset = [], 0
        for u, labels in zip(init.users, writes):
            users.append(_Field(offset, labels, width, u.user))
            offset = users[-1].end
        fixed_can, fixed_group = init.can - removed, init.group - removed
        can = _Field(offset, (g for g in grants if g not in fixed_can), fixed=fixed_can)
        group = _Field(can.end, (m for m in members if m not in fixed_group), fixed=fixed_group)
        self.reads = [f.read for f in users + [can, group]]
        self.perms, self.sets, self.slot = init.perms, init.sets, init.slot
        # The initial state binds nothing and has every t at 0.
        self.init = (sum(can.bit.get(g, 0) for g in init.can)
                     | sum(group.bit.get(m, 0) for m in init.group))

        self.steps = []  # (guard, keep, set, t unit): a depth adds depth * t unit to set
        self.guards = 0  # every bit some guard tests
        for st in steps:
            guard = 0 if st.guard is None or st.guard in fixed_can else can.bit.get(st.guard)
            if guard is None or not st.slots:
                continue  # its grant is never held, or it touches nobody
            clear = put = unit = 0  # the bits of a field are distinct, so a sum is their union
            for i in st.slots:
                user = users[i]
                clear |= user.t_mask | sum(b for (term, _), b in user.bit.items() if term == st.term)
                unit |= user.t_unit
                put |= user.bit.get((st.term, st.value), 0)
            if st.grants or st.members:
                moved = (sum(can.bit.get(g, 0) for g in st.grants)
                         | sum(group.bit.get(m, 0) for m in st.members))
                if st.adds:
                    put |= moved
                else:
                    clear |= moved
            self.steps.append((guard, ~clear, put, unit))
            self.guards |= guard

    def moves(self, depth: int) -> list[tuple[int, int, int]]:
        """``(guard, keep, set)`` of each step taken at ``t = depth``."""
        return [(guard, keep, put | depth * unit) for guard, keep, put, unit in self.steps]

    def decode(self, s: int) -> GlobalState:
        """The state ``s`` encodes."""
        *users, can, group = [field[s >> offset & mask] for offset, mask, field in self.reads]
        return GlobalState(tuple(users), can, group, self.perms, self.sets, self.slot)

    def search(self, max_len: int, max_states: int) -> Iterator[int]:
        """Breadth-first from ``init``: each state within ``max_len`` steps, in the
        order first reached, a whole depth at once, so the cap trips by depth counts.

        Every step sets the ``t`` of each user it touches to the depth it is
        taken at, so the largest ``t`` of a state is the depth it is first
        reached at: no state is reached at two depths, and a new state can
        only repeat one of its own depth.  The steps a state can take depend
        only on its guard bits, so each depth lists the moves they enable
        once per guard value it meets.
        """
        guards, frontier, count = self.guards, [self.init], 1
        yield self.init
        for depth in range(1, max_len + 1):
            moves = self.moves(depth)
            enabled = {guards: moves}  # guard bits -> the moves they enable
            layer = {}  # the states first reached at this depth, in that order
            room = max(max_states - count, 0)  # a depth with no new state never trips
            for s in frontier:
                g = s & guards
                pairs = enabled.get(g)
                if pairs is None:
                    pairs = enabled[g] = [m for m in moves if g & m[0] == m[0]]
                for _, keep, put in pairs:
                    layer[s & keep | put] = None
                if len(layer) > room:
                    raise EnumerationLimit(f"more than {max_states} states within bound {max_len}")
            count += len(layer)
            yield from layer
            if not layer:
                break
            frontier = layer


class StateView(NamedTuple):
    """A state the search reached, read one user at a time: :meth:`user`, as
    :meth:`GlobalState.user`, decodes one field through its memo table."""

    kernel: _Kernel
    s: int

    def user(self, name: str) -> UserState:
        if name not in self.kernel.slot:
            return UserState(name)
        offset, mask, part = self.kernel.reads[self.kernel.slot[name]]
        return part[self.s >> offset & mask]


def search_states(pa: Architecture, max_len: int, universe: Universe,
                  max_states: int = 10**6) -> tuple[_Kernel, Iterator[int]]:
    """The compiled kernel, and the states reachable by compatible traces of
    length <= ``max_len`` (event times are trace positions) as its ints, in
    breadth-first order.  The search runs as they are read and raises
    :class:`EnumerationLimit` past ``max_states`` distinct states."""
    ok, witness = is_consistent(pa)
    if not ok:
        raise ArchSemanticsError(f"inconsistent architecture: {witness} has two owners")

    init = initial_state(pa, universe.users)
    steps = []  # the events resolved once; each depth takes them at its own time
    for e in instantiate_events(pa, 1, universe):
        try:
            steps.append(resolve_event(init, e))
        except ArchSemanticsError:
            continue  # it names a user outside the universe, so no state can take it
    kernel = _Kernel(init, steps, max_len)
    return kernel, kernel.search(max_len, max_states)


def enumerate_states(pa: Architecture, max_len: int, universe: Universe,
                     max_states: int = 10**6) -> list[GlobalState]:
    """The states of :func:`search_states`, in its order, decoded."""
    kernel, reached = search_states(pa, max_len, universe, max_states)
    return [kernel.decode(s) for s in reached]
