"""From policies to architectures: storage and permission mapping, event-driven
architecture derivation, trace images, correspondence checking, and the
comparison orders for policies and architectures.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .architecture import (
    ACTIVITIES,
    Act1,
    Act2,
    Activity,
    AddFriends,
    Architecture,
    ArchEvent,
    Delete,
    DeleteReq,
    GroupAct,
    GroupHas,
    KeyVar,
    Own,
    Possess,
    UnAct1,
    UnAct2,
    UnFriends,
    UnGroupAct,
    UnGroupHas,
    Var,
    enc,
    is_consistent,
    is_pattern,
    pair_lines,
    perm_lines,
    serialize_activity,
)
from .logic import h1_applicable, h2_applicable, h3_applicable, h8_conclusions
from .model import SP, DataRef, FriendAlias, MutableRecord, Perms, Policy, PolicyModel, record
from .semantics import (
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
)


class MappingError(Exception):
    pass


def var_of(dt: DataRef) -> Var:
    return Var(dt.ow, dt.ds, dt.ident)


# ---------------------------------------------------------------------------
# Storage and permission mapping


def map_storage(dt: DataRef, pol: Policy) -> frozenset[Activity]:
    """Initial-possession activities implied by the storage specification.

    Client-side storage keeps the datum with its owner regardless of form;
    provider-side storage adds provider possession of the datum, of its
    ciphertext under the provider key, or of the ciphertext under the owner
    key, depending on the form.
    """
    x = var_of(dt)
    out: set[Activity] = set()
    for place in pol.storage.wh:
        if place == "clientloc":
            out.add(Own(dt.ow, x))
            continue
        if place != "sploc":
            raise MappingError(f"unmapped storage place {place!r}")
        for form in pol.storage.ho:
            if form == ("plain", "none"):
                out.update({Own(dt.ow, x), Possess(x)})
            elif form == ("enc", "spkey"):
                key = KeyVar(SP)
                out.update({Own(dt.ow, x), Possess(enc(x, key)), Possess(key)})
            elif form == ("enc", "clkey"):
                key = KeyVar(dt.ow)
                out.update({Own(dt.ow, x), Own(dt.ow, key), Possess(enc(x, key))})
            else:
                raise MappingError(f"unmapped storage form {form!r}")
    return frozenset(out)


# ---------------------------------------------------------------------------
# Event-driven derivation


class MappingContext(MutableRecord):
    def __init__(self, model: PolicyModel, simplify_friends: bool = False):
        self.model = model
        self.simplify_friends = simplify_friends

    def policy(self, dt: DataRef) -> Policy:
        try:
            return self.model.policy_of(dt)
        except KeyError:
            raise MappingError(f"no policy for datum {dt.ident!r}") from None


def _delete_delay(pol: Policy) -> int:
    dd = pol.dm.delay("man")
    if dd is None:
        dd = pol.dm.delay("aut")
    if dd is None:
        raise MappingError("delete event for a datum whose policy has no deletion mode")
    return dd


# Policy event kind -> the activity its events map to, built from the event
# and its datum's variable.  ``store``, ``delete`` and ``use`` are mapped by
# hand: storage yields a set of activities, deletion reads the policy, and
# usage leaves no architectural footprint.
_ACTIVITY_OF = {
    OWN: lambda e, x: Own(e.dt.ow, x),
    DELETEREQ: lambda e, x: DeleteReq(e.actor, x),
    GROUPACT: lambda e, x: GroupAct(e.actor, e.tar, e.action),
    UNGROUPACT: lambda e, x: UnGroupAct(e.actor, e.tar, e.action),
    GROUPHAS: lambda e, x: GroupHas(e.actor, e.tar),
    UNGROUPHAS: lambda e, x: UnGroupHas(e.actor, e.tar),
    ACT1: lambda e, x: Act1(e.actor, e.action, x),
    UNACT1: lambda e, x: UnAct1(e.actor, e.action, x),
    ACT2: lambda e, x: Act2(e.actor, e.tar, e.action, x),
    UNACT2: lambda e, x: UnAct2(e.actor, e.tar, e.action, x),
}

# With ``simplify_friends`` and a declared alias, the whole group family
# collapses to the alias pair.
_FRIENDS_OF = {GROUPACT: AddFriends, GROUPHAS: AddFriends, UNGROUPACT: UnFriends,
               UNGROUPHAS: UnFriends}

# Event kind -> whether the activity reads its action's holder tables besides
# its ``can`` set.  ``grouphas`` reads the group; every other kind reads none.
_READS_HOLDERS = {GROUPACT: False, ACT1: True, ACT2: True, UNACT1: False, UNACT2: False}


def _activity(e: AbstractEvent, x: Var, alias: FriendAlias | None) -> Activity:
    """The activity ``e`` maps to; ``alias`` is set when the group family collapses."""
    if alias is not None and e.kind in _FRIENDS_OF:
        return _FRIENDS_OF[e.kind](e.actor, e.tar, alias.actions)
    build = _ACTIVITY_OF.get(e.kind)
    if build is None:
        raise MappingError(f"unmapped event kind {e.kind!r}")
    return build(e, x)


def derive_architecture(
    events: Iterable[AbstractEvent],
    ctx: MappingContext,
) -> Architecture:
    """Union of the per-event activity and permission contributions, with the
    model's action pairs.  Idempotent over the event set.  With
    ``simplify_friends`` and a declared alias, the whole group/ungroup family
    collapses to the alias pair.
    """
    activities: set[Activity] = set()
    parts: dict[tuple, Perms] = {}  # keyed (datum, action, holders), or (datum,) for the group
    alias = ctx.model.alias if ctx.simplify_friends else None

    for e in events:
        pol = ctx.policy(e.dt)
        x = var_of(e.dt)
        if e.kind == STORE:
            activities.update(map_storage(e.dt, pol))
        elif e.kind == DELETE:
            activities.add(Delete(x, _delete_delay(pol)))
        elif e.kind != USE:
            activities.add(_activity(e, x, alias))
            if e.kind == GROUPHAS:
                parts.setdefault((e.dt.ident,), Perms(group=pol.perms.group))
            elif e.kind in _READS_HOLDERS:
                holders = _READS_HOLDERS[e.kind]
                key = (e.dt.ident, e.action, holders)
                if key not in parts:
                    parts[key] = pol.perms.only(e.action, holders)

    pa = Architecture(activities=frozenset(activities), perms=Perms.union(parts.values()),
                      sets=ctx.model.sets)
    ok, witness = is_consistent(pa)
    if not ok:
        raise MappingError(f"derived architecture is inconsistent: {witness} has two owners")
    return pa


# ---------------------------------------------------------------------------
# Trace image


# Activity class -> its event kind and whether it names a term.
_EVENT_SHAPE = {schema.cls: (schema.kind, "term" in schema.args) for schema in ACTIVITIES.values()}


def image_trace(trace: Sequence[AbstractEvent], ctx: MappingContext) -> list[ArchEvent]:
    """The event-wise architecture image of a policy trace.

    Each event becomes an instance of the activity it maps to, performed by
    its actor and, when the activity names a term, carrying the datum's
    current value.  ``use`` events have no architecture counterpart and are
    dropped; ``store`` becomes one possession event per stored form.
    """
    alias = ctx.model.alias if ctx.simplify_friends else None
    values: dict[str, str | None] = {}
    out: list[ArchEvent] = []
    for e in trace:
        pol = ctx.policy(e.dt)
        x = var_of(e.dt)
        if e.kind == STORE:
            v = values.get(e.dt.ident)
            for act in sorted(map_storage(e.dt, pol), key=repr):
                if isinstance(act, Possess):
                    term = act.term
                    val = v if isinstance(term, Var) else f"enc({v})"
                    if isinstance(term, KeyVar):
                        val = f"key({term.owner})"
                    out.append(ArchEvent("possess", e.t, user=SP, term=term, value=val))
        elif e.kind == DELETE:
            out.append(ArchEvent("delete", e.t, term=x, value=values.get(e.dt.ident)))
        elif e.kind != USE:
            if e.kind == OWN:
                values[e.dt.ident] = e.value
            act = _activity(e, x, alias)
            kind, has_term = _EVENT_SHAPE[type(act)]
            out.append(ArchEvent(
                kind, e.t, user=e.actor, tar=getattr(act, "tar", None),
                action=getattr(act, "action", None), term=getattr(act, "term", None),
                value=values.get(e.dt.ident) if has_term else None,
                actions=getattr(act, "actions", ()),
            ))
    return out


# ---------------------------------------------------------------------------
# Correspondence


@record
class CorrespondenceResult:
    prop: str
    user: str | None
    datum: str
    status: str  # holds / fails / inapplicable
    detail: str = ""

    def render(self) -> str:
        who = self.user if self.user is not None else "-"
        return f"{self.prop}\t{who}\t{self.datum}\t{self.status}\t{self.detail}"


class CorrespondenceReport(MutableRecord):
    def __init__(self, results: list[CorrespondenceResult] | None = None):
        self.results = [] if results is None else results

    @property
    def holds(self) -> bool:
        return all(r.status != "fails" for r in self.results)

    def render(self) -> str:
        lines = [r.render() for r in self.results]
        lines.append("correspondence holds" if self.holds else "correspondence fails")
        return "\n".join(lines)


def _policy_grants(
    j: str, pol: Policy, actions: Sequence[str], users: Sequence[str], binary: bool,
    extendable: frozenset[tuple[str, str]],
) -> bool:
    """Whether one of ``actions``, performed by a user its can-group admits
    (or the trace can add), grants ``j`` the datum: against some target in
    ``users`` when the actions are ``binary``."""
    targets = users if binary else [None]
    for action in actions:
        for i in users:
            if i not in pol.perms.can_do(action) and (action, i) not in extendable:
                continue
            for tar in targets:
                if j in pol.perms.holders(action, i, tar):
                    return True
    return False


def _arch_h10(pa: Architecture, x: Var) -> bool:
    has_delete = any(d.term.matches(x) if isinstance(d.term, Var) else False
                     for d in pa.of_type(Delete))
    has_req = any(r.term.matches(x) if isinstance(r.term, Var) else False
                  for r in pa.of_type(DeleteReq))
    return has_delete and has_req


def _biconditional(
    prop: str, user: str | None, datum: str, policy_side: bool, arch_side: bool,
    policy_label: str, arch_label: str,
) -> CorrespondenceResult:
    if policy_side == arch_side:
        return CorrespondenceResult(prop, user, datum, "holds",
                                    "both apply" if policy_side else "neither applies")
    if policy_side:
        detail = f"{policy_label} applies but {arch_label} does not"
    else:
        detail = f"{arch_label} applies but {policy_label} does not"
    return CorrespondenceResult(prop, user, datum, "fails", detail)


def check_correspondence(
    ctx: MappingContext,
    pa: Architecture | None = None,
    trace: Sequence[AbstractEvent] | None = None,
) -> CorrespondenceReport:
    """Check the six policy/architecture correspondences per (user, datum).

    Applicability on both sides is judged over all possible traces, decided
    structurally from the permission machinery; a supplied trace widens the
    derived architecture when no explicit one is given.
    """
    model = ctx.model
    unary = [base for base, _ in model.sets.unary]
    binary = [base for base, _ in model.sets.binary]
    users = sorted(model.users() | {SP})

    # When no explicit architecture is supplied, derive one per datum from the
    # events touching it.  Judging each datum against its own sub-architecture
    # keeps the shared permission tables from conflating same-named actions
    # granted differently by different data's policies.
    events = list(trace) if trace else []
    per_datum: dict[str, Architecture] = {}
    if pa is None:
        for ident in model.data:
            per_datum[ident] = derive_architecture(
                [e for e in events if e.dt.ident == ident], ctx
            )

    # Actions whose can-groups the supplied trace can extend at run time:
    # the policy side must judge them performable by anyone, matching the
    # grant activities the same events contribute on the architecture side.
    extendable: dict[str, set[tuple[str, str]]] = {}
    for e in trace or []:
        if e.kind == GROUPACT:
            targets = users if is_pattern(e.tar) else [e.tar]
            for tar in targets:
                extendable.setdefault(e.dt.ident, set()).add((e.action, tar))

    report = CorrespondenceReport()
    for ident in sorted(model.data):
        dt = model.data[ident]
        pol = model.policy_of(dt)
        x = var_of(dt)
        ext = frozenset(extendable.get(ident, ()))
        pa_here = pa if pa is not None else per_datum[ident]
        h8 = any(r.conclusion.var == x for r in h8_conclusions(pa_here))

        for j in users:
            c3i = j == dt.ow
            c3ii = _policy_grants(j, pol, unary, users, False, ext)
            c3iii = _policy_grants(j, pol, binary, users, True, ext)
            h1 = h1_applicable(pa_here, j, x)
            h2 = h2_applicable(pa_here, j, x, users)
            h3 = h3_applicable(pa_here, j, x, users)
            h9 = not (h1 or h2 or h3 or (j == SP and h8))

            # The provider's storage-based possession is a holder clause of its
            # own; mirror it on the policy side so the biconditional stays
            # symmetric for the provider principal.
            sp_clause = j == SP and pol.storage.sp_readable()
            report.results.append(
                _biconditional("P1", j, ident, not (c3i or c3ii or c3iii or sp_clause), h9,
                               "no holder clause", "never-has rule")
            )
            report.results.append(
                _biconditional("P2", j, ident, c3i, h1, "ownership clause", "owner rule")
            )
            for prop, arity, actions, clause, rule in (("P3", "unary", unary, c3ii, h2),
                                                       ("P4", "binary", binary, c3iii, h3)):
                if actions:
                    result = _biconditional(prop, j, ident, clause, rule,
                                            f"{arity}-action clause", f"{arity}-action rule")
                else:
                    result = CorrespondenceResult(prop, j, ident, "inapplicable",
                                                  f"no {arity} actions declared")
                report.results.append(result)

        report.results.append(
            _biconditional("P5", None, ident, pol.storage.sp_readable(), h8,
                           "provider-storage rule", "provider-possession rule")
        )
        if pol.dm.modes or pa_here.of_type(Delete):
            report.results.append(
                _biconditional("P6", None, ident, pol.dm.delay("man") is not None,
                               _arch_h10(pa_here, x), "deletion-delay rule", "deletion rule")
            )
        else:
            report.results.append(
                CorrespondenceResult("P6", None, ident, "inapplicable", "no deletion machinery")
            )
    return report


# ---------------------------------------------------------------------------
# Comparison orders


EQUAL = "equal"
STRICTER = "stricter"
LOOSER = "looser"
INCOMPARABLE = "incomparable"


@record
class PolicyComparison:
    overall: str
    components: Mapping[str, str]


def _set_relation(a: frozenset, b: frozenset) -> str:
    if a == b:
        return EQUAL
    if a <= b:
        return STRICTER
    if a >= b:
        return LOOSER
    return INCOMPARABLE


def _grant_relation(a: Mapping, b: Mapping) -> str:
    return _combine({_set_relation(a.get(k, frozenset()), b.get(k, frozenset())) for k in {*a, *b}})


def _nested_relation(a: Mapping, b: Mapping) -> str:
    return _combine({_grant_relation(a.get(k, {}), b.get(k, {})) for k in {*a, *b}})


def _combine(rels: set[str]) -> str:
    rels = rels - {EQUAL}
    if not rels:
        return EQUAL
    if rels == {STRICTER}:
        return STRICTER
    if rels == {LOOSER}:
        return LOOSER
    return INCOMPARABLE


def _dm_relation(a, b) -> str:
    """Shorter delays (and fewer modes) are stricter."""
    rels = set()
    for mode in ("man", "aut"):
        da, db = a.delay(mode), b.delay(mode)
        if da == db:
            rels.add(EQUAL)
        elif da is None:
            rels.add(STRICTER)
        elif db is None:
            rels.add(LOOSER)
        else:
            rels.add(STRICTER if da < db else LOOSER)
    return _combine(rels)


def _perms_relations(a: Perms, b: Perms) -> dict[str, str]:
    """The relation of each part of two permission tables."""
    return {
        "acp": _grant_relation(a.can, b.can),
        "has.by": _nested_relation(a.by, b.by),
        "has.been": _nested_relation(a.been, b.been),
        "has.group": _set_relation(a.group, b.group),
    }


def compare_policies(p1: Policy, p2: Policy) -> PolicyComparison:
    components = {
        "ap": _set_relation(p1.ap, p2.ap),
        "dm": _dm_relation(p1.dm, p2.dm),
        "wh": _set_relation(p1.storage.wh, p2.storage.wh),
        "ho": _set_relation(p1.storage.ho, p2.storage.ho),
        **_perms_relations(p1.perms, p2.perms),
    }
    overall = _combine(set(components.values()))
    return PolicyComparison(overall=overall, components=components)


@record
class ArchComparison:
    overall: str  # equal / subset / superset / incomparable
    only_first: tuple[Activity, ...]
    only_second: tuple[Activity, ...]
    perms_first: tuple[str, ...]  # pair and permission lines only the first has
    perms_second: tuple[str, ...]

    def render(self) -> str:
        lines = [f"- {serialize_activity(a)}" for a in self.only_first]
        lines += [f"+ {serialize_activity(a)}" for a in self.only_second]
        lines += [f"- {line}" for line in self.perms_first]
        lines += [f"+ {line}" for line in self.perms_second]
        lines.append(f"overall\t{self.overall}")
        return "\n".join(lines)


def compare_architectures(pa1: Architecture, pa2: Architecture) -> ArchComparison:
    """Fewer activities, fewer action pairs and smaller permission tables are
    a subset; the orders combine as the components of ``compare_policies`` do."""
    pairs1, pairs2 = frozenset(pair_lines(pa1.sets)), frozenset(pair_lines(pa2.sets))
    rels = _perms_relations(pa1.perms, pa2.perms).values()
    rel = _combine({_set_relation(pa1.activities, pa2.activities),
                    _set_relation(pairs1, pairs2), *rels})
    lines1, lines2 = pairs1.union(perm_lines(pa1.perms)), pairs2.union(perm_lines(pa2.perms))
    return ArchComparison(
        overall={STRICTER: "subset", LOOSER: "superset"}.get(rel, rel),
        only_first=tuple(sorted(pa1.activities - pa2.activities, key=serialize_activity)),
        only_second=tuple(sorted(pa2.activities - pa1.activities, key=serialize_activity)),
        perms_first=tuple(sorted(lines1 - lines2)),
        perms_second=tuple(sorted(lines2 - lines1)),
    )
