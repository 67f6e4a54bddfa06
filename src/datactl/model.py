"""Core domain vocabulary: users, actions, data, and per-datum control policies.

Everything here is an immutable value; well-formedness is checked by the
``validate_*`` functions, which return error lists instead of raising.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Mapping, NamedTuple

# Distinguished principal for the service provider / data controller.
SP = "sp"

PREDEFINED_ACTIONS = frozenset(
    {
        "own",
        "store",
        "use",
        "deletereq",
        "delete",
        "groupact",
        "ungroupact",
        "grouphas",
        "ungrouphas",
    }
)

STORAGE_PLACES = frozenset({"clientloc", "sploc"})
STORAGE_FORMS = frozenset({("plain", "none"), ("enc", "spkey"), ("enc", "clkey")})
DELETION_MODES = frozenset({"man", "aut"})


class Record(tuple):
    """The immutable base of the package's records, named tuples built by
    :func:`record` that equal only records of their own class, so twins such as
    ``GroupAct`` and ``UnGroupAct`` stay apart in one set.  The hash is that of
    the fields' tuple, as a frozen dataclass's is, so set orders do not move."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return tuple.__eq__(self, other) if other.__class__ is self.__class__ else NotImplemented

    # ``!=`` inverts ``__eq__``, as object's does; tuple's would ignore the class.
    __ne__ = object.__ne__
    __hash__ = tuple.__hash__


def record(cls: type) -> type:
    """``cls`` rebuilt as a :class:`Record`: its annotated class attributes, in
    order, are the fields, and a field's class value is its default."""
    body = dict(cls.__dict__)
    names = tuple(body.get("__annotations__", ()))
    required = [name for name in names if name not in body]
    defaults = [body.pop(name) for name in names[len(required):]]  # KeyError: a default not last
    for name in ("__dict__", "__weakref__"):
        body.pop(name, None)
    bases = tuple(base for base in cls.__bases__ if base is not object)
    fields = namedtuple(cls.__name__, names, defaults=defaults)
    return type(cls.__name__, (fields, Record, *bases), {**body, "__slots__": ()})


@record
class ActivitySets:
    """The declared actions, each paired with the un-action that takes it back:
    ``(action, un-action)`` names per arity, in declaration order."""

    unary: tuple[tuple[str, str], ...] = ()
    binary: tuple[tuple[str, str], ...] = ()

    def names(self) -> tuple[str, ...]:
        """Every declared name: the unary actions, their un-actions, then the
        binary actions and theirs."""
        return tuple(pair[i] for pairs in (self.unary, self.binary)
                     for i in (0, 1) for pair in pairs)

    def base_names(self) -> tuple[str, ...]:
        """The actions without their un-actions, declaration order (unary first)."""
        return tuple(base for base, _ in self.unary + self.binary)

    def base_of(self, name: str) -> str | None:
        """For an un-action, the action it takes back; for an action, itself."""
        for base, undo in self.unary + self.binary:
            if name in (base, undo):
                return base
        return None


class DataRef(NamedTuple):
    """A governed datum.  The tuple (ow, ds, dtype, ident) is fixed for its
    lifetime; a named tuple, so the audit's lookups hash and compare it in C."""

    ow: str
    ds: frozenset[str]
    dtype: str
    ident: str

    def __str__(self) -> str:
        return self.ident


@record
class DeletionSpec:
    """Deletion modes with their delays, at most one entry per mode."""

    modes: tuple[tuple[str, int], ...] = ()

    def delay(self, mode: str) -> int | None:
        for m, dd in self.modes:
            if m == mode:
                return dd
        return None


@record
class StorageSpec:
    wh: frozenset[str] = frozenset()
    ho: frozenset[tuple[str, str]] = frozenset()

    def sp_readable(self) -> bool:
        """True when the stored form lets the provider read the datum."""
        return "sploc" in self.wh and (
            ("plain", "none") in self.ho or ("enc", "spkey") in self.ho
        )


@record
class Perms:
    """The permission table of a datum: who may perform each action, and who
    may come to hold the datum through an action or through grouping.

    ``can`` is keyed by action name.  ``by`` and ``been`` are keyed by base
    action name, then by performer or target; absent keys read as the empty
    set.  ``been`` only carries binary actions.  Policies hold one per datum,
    and an architecture holds one copied from its policies, so the two sides
    read the same table.  The mapping grants the same sets on behalf of every
    user, so the architecture's per-granter family of tables is this one table.
    """

    can: Mapping[str, frozenset[str]] = {}
    by: Mapping[str, Mapping[str, frozenset[str]]] = {}
    been: Mapping[str, Mapping[str, frozenset[str]]] = {}
    group: frozenset[str] = frozenset()

    def can_do(self, action: str) -> frozenset[str]:
        return self.can.get(action, frozenset())

    def holders(self, action: str, performer: str, target: str | None = None) -> frozenset[str]:
        """Who comes to hold the datum when ``performer`` does ``action``: the
        ``by`` set, intersected with the ``been`` set of ``target`` when a
        target is given (binary actions)."""
        held = self.by.get(action, {}).get(performer, frozenset())
        if target is not None:
            held = held & self.been.get(action, {}).get(target, frozenset())
        return held

    def users(self) -> frozenset[str]:
        """Every user the tables name, as a key or as a member."""
        seen: set[str] = set(self.group)
        for users in self.can.values():
            seen.update(users)
        for table in (self.by, self.been):
            for per_user in table.values():
                seen.update(per_user)
                for granted in per_user.values():
                    seen.update(granted)
        return frozenset(seen)

    def only(self, action: str, holders: bool) -> "Perms":
        """The part of the table about ``action``: its ``can`` set and, with
        ``holders``, its ``by`` and ``been`` tables.  Empty entries are dropped."""
        can = self.can_do(action)
        by = self.by.get(action) if holders else None
        been = self.been.get(action) if holders else None
        return Perms(
            can={action: can} if can else {},
            by={action: by} if by else {},
            been={action: been} if been else {},
        )

    @staticmethod
    def union(tables: Iterable["Perms"]) -> "Perms":
        """The entry-wise union of ``tables``; keys keep their first-seen order."""
        can: dict[str, frozenset[str]] = {}
        by: dict[str, dict[str, frozenset[str]]] = {}
        been: dict[str, dict[str, frozenset[str]]] = {}
        group: frozenset[str] = frozenset()
        for table in tables:
            _union_into(can, table.can)
            for action, per_user in table.by.items():
                _union_into(by.setdefault(action, {}), per_user)
            for action, per_user in table.been.items():
                _union_into(been.setdefault(action, {}), per_user)
            group |= table.group
        return Perms(can=can, by=by, been=been, group=group)


def _union_into(acc: dict[str, frozenset[str]], table: Mapping[str, frozenset[str]]) -> None:
    for key, users in table.items():
        acc[key] = acc.get(key, frozenset()) | users


@record
class Policy:
    """The per-datum control tuple: purposes, deletion, storage and permissions."""

    ap: frozenset[str] = frozenset()
    dm: DeletionSpec = DeletionSpec()
    storage: StorageSpec = StorageSpec()
    perms: Perms = Perms()


@record
class FriendAlias:
    """A shorthand pair (e.g. addfriends/unfriends) expanding to per-action
    group/ungroup events plus grouphas/ungrouphas."""

    add_name: str
    remove_name: str
    actions: tuple[str, ...]


class MutableRecord:
    """Equality and repr from the attributes that ``__init__`` sets, for the
    records that callers fill in or rebind."""

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


class PolicyModel(MutableRecord):
    """A parsed model: activity declarations plus the governed data and policies."""

    def __init__(self, sets: ActivitySets, data: dict[str, DataRef] | None = None,
                 policies: dict[str, Policy] | None = None, alias: FriendAlias | None = None):
        self.sets = sets
        self.data = {} if data is None else data
        self.policies = {} if policies is None else policies  # keyed by DataRef.ident
        self.alias = alias

    def policy_of(self, dt: DataRef) -> Policy:
        return self.policies[dt.ident]

    def users(self) -> frozenset[str]:
        seen: set[str] = set()
        for dt in self.data.values():
            seen.add(dt.ow)
            seen.update(dt.ds)
        for pol in self.policies.values():
            seen.update(pol.perms.users())
        seen.discard(SP)
        return frozenset(seen)


def validate_activity_sets(sets: ActivitySets) -> list[str]:
    """The declared names that clash: one declared twice, or one that is a
    predefined action.  An empty list means well-formed."""
    errors: list[str] = []
    seen: set[str] = set()
    for name in sets.names():
        if name in seen:
            errors.append(f"action {name!r} declared more than once")
        seen.add(name)
        if name in PREDEFINED_ACTIONS:
            errors.append(f"action {name!r} collides with a predefined action")
    return errors


def validate_policy(pol: Policy, sets: ActivitySets) -> list[str]:
    """Check one policy against the declared activity sets."""
    errors = [message for _, message in perms_errors(pol.perms, sets)]
    if not pol.storage.wh:
        errors.append("storage place set (where) is empty")
    if not pol.storage.ho:
        errors.append("storage form set (how) is empty")
    for place in sorted(pol.storage.wh):
        if place not in STORAGE_PLACES:
            errors.append(f"unknown storage place {place!r}")
    for form in sorted(pol.storage.ho):
        if form not in STORAGE_FORMS:
            errors.append(f"unknown storage form {form!r}")

    seen_modes: set[str] = set()
    for mode, dd in pol.dm.modes:
        if mode not in DELETION_MODES:
            errors.append(f"unknown deletion mode {mode!r}")
        if mode in seen_modes:
            errors.append(f"duplicate deletion mode {mode!r}")
        seen_modes.add(mode)
        if dd < 0:
            errors.append(f"negative deletion delay for mode {mode!r}")
    return errors


def perms_errors(perms: Perms, sets: ActivitySets) -> list[tuple[str, str]]:
    """Per action that a table of ``perms`` keys but ``sets`` does not declare
    for that table: the words that start its line, such as ``has by fav``, and
    the error.  Policies and architectures share this check."""
    pairs = sets.unary + sets.binary
    checks = (("can", perms.can, PREDEFINED_ACTIONS.union(*pairs),
               "undeclared action {!r} in can-groups"),
              ("has by", perms.by, {a for a, _ in pairs},
               "has-by group for {!r}, which is not a declared base action"),
              ("has been", perms.been, {a for a, _ in sets.binary},
               "has-been group for {!r}, which is not a declared binary action"))
    return [(f"{words} {a}", message.format(a))
            for words, table, allowed, message in checks for a in table if a not in allowed]


def validate_model(model: PolicyModel) -> list[str]:
    errors = validate_activity_sets(model.sets)
    idents: set[str] = set()
    for ident, dt in model.data.items():
        if ident != dt.ident:
            errors.append(f"datum key {ident!r} disagrees with its ident {dt.ident!r}")
        if dt.ident in idents:
            errors.append(f"duplicate datum id {dt.ident!r}")
        idents.add(dt.ident)
        if ident not in model.policies:
            errors.append(f"datum {ident!r} has no policy")
    # Data often share one ``Policy`` object (the parser shares equal blocks),
    # so each object is checked once and its errors reported under every datum.
    checked: dict[int, list[str]] = {}
    for ident, pol in model.policies.items():
        found = checked.get(id(pol))
        if found is None:
            found = checked[id(pol)] = validate_policy(pol, model.sets)
        errors.extend(f"policy for {ident!r}: {e}" for e in found)
    if model.alias is not None:
        for action in model.alias.actions:
            if action not in model.sets.base_names():
                errors.append(f"alias {model.alias.add_name!r} covers {action!r},"
                              " which is not a declared base action")
    return errors
