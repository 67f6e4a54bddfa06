"""Seeded inputs for the benchmark workloads.

Every generator returns document text together with the verdicts the text
must produce, worked out while the text is written (which violation sits at
which event, which storage form yields how many provider possessions), never
by running datactl on it.  Only the deduction instances, which jobs hand to
the library directly, are built from datactl's classes.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from datactl.architecture import (
    Act1, ArchEvent, ArchPerms, Architecture, Delete, DeleteReq, Own, Possess, Var,
)
from datactl.model import SP

# ---------------------------------------------------------------------------
# audit-large: the facebook.dcp header plus D copies of photo1, plus one datum
# stored at the client only, so that C4 (provider storage form) can fire.

VAULT_BLOCK = """data vault {
  ow = alice;
  ds = {alice};
  type = Notes;
  policy {
    purposes = {social-networking};
    delete = {man:30};
    where = {clientloc};
    how = {plain};
    can delete = {alice};
  }
}
"""

# The photo1 policy lets alice and bob perform every action, grants holdership
# only through "has by like alice = {alice}" (the owner), keeps the provider's
# copy encrypted under its own key (readable, so store never trips C4) and
# allows manual deletion within 30 time units.  The oracle below relies on it.
PHOTO_OWNER = "alice"


@dataclass
class AuditCase:
    """One policy/trace pair and the violations check-trace must report."""

    data: int
    policy: str
    trace: str
    events: int
    # (rule, 1-based event index, datum) for every injected violation
    expected: list[tuple[str, int, str]]


def facebook_parts(fixture: Path) -> tuple[str, str]:
    """The header (actions and alias) and the photo1 block of facebook.dcp."""
    text = fixture.read_text(encoding="utf-8")
    header = text[: text.index("\ndata ") + 1]
    match = re.search(r"^data photo1 \{\n.*?^\}\n", text, re.M | re.S)
    if match is None:
        raise ValueError(f"{fixture} has no photo1 block")
    return header, match.group(0)


def audit_case(header: str, photo: str, d: int, rng: random.Random) -> AuditCase:
    """D photos plus the vault, and a trace of exactly 5*D events.

    The trace owns every datum, then mixes compliant like / unlike / post /
    use / store events and honoured deletion pairs with D//50 injected
    violations of each of C1, C2, C3 and C5 and one of C4.
    """
    photos = [f"photo{k}" for k in range(d)]
    policy = header + "".join(
        photo.replace("data photo1 {", f"data {p} {{", 1) for p in photos
    ) + VAULT_BLOCK

    events: list[str] = []
    expected: list[tuple[str, int, str]] = []

    def emit(name: str, fields: str) -> int:
        events.append(f"  {name}(t={len(events) + 1}, {fields});")
        return len(events)

    for p in photos + ["vault"]:
        emit("own", f'or={PHOTO_OWNER}, dt={p}, value="pic"')

    k = max(1, d // 50)
    deletions = max(1, d // 20)
    c5_data = rng.sample(photos, k)
    deletable = [p for p in photos if p not in set(c5_data)]
    rng.shuffle(deletable)
    plan = ["C1", "C2", "C3", "C5"] * k + ["C4"] + ["delete"] * deletions
    # a deletion pair is two events; everything else is one
    plan += ["fill"] * (5 * d - len(events) - len(plan) - deletions)
    rng.shuffle(plan)

    alive = list(photos)
    for n, item in enumerate(plan):
        if item == "fill":
            p = rng.choice(alive)
            kind = rng.randrange(5)
            if kind == 0:
                emit("like", f"or={rng.choice(('alice', 'bob'))}, dt={p}")
            elif kind == 1:
                emit("unlike", f"or={rng.choice(('alice', 'bob'))}, dt={p}")
            elif kind == 2:
                performer, target = rng.choice((("alice", "bob"), ("bob", "alice")))
                emit("post", f"or={performer}, tar={target}, dt={p}")
            elif kind == 3:
                emit("use", f"dt={p}, purposes={{social-networking}}")
            else:
                emit("store", f"dt={p}")
        elif item == "delete":
            p = deletable.pop()
            emit("deletereq", f"or={PHOTO_OWNER}, dt={p}")
            emit("delete", f"dt={p}")
            alive.remove(p)
        elif item == "C1":  # a purpose outside {social-networking}
            p = rng.choice(alive)
            expected.append(("C1", emit("use", f"dt={p}, purposes={{ads}}"), p))
        elif item == "C2":  # a performer outside the can-group
            p = rng.choice(alive)
            expected.append(("C2", emit("like", f"or=mallory, dt={p}"), p))
        elif item == "C3":  # a holder added by no declared action; one per (datum, user)
            p = rng.choice(alive)
            expected.append(("C3", emit("grouphas", f"or={PHOTO_OWNER}, tar=eve{n}, dt={p}"), p))
        elif item == "C4":  # the provider holds a datum stored at the client only
            expected.append(("C4", emit("grouphas", f"or={PHOTO_OWNER}, tar=sp, dt=vault"), "vault"))
        else:  # C5: a request never honoured; c5 data are never deleted
            p = c5_data.pop()
            expected.append(("C5", emit("deletereq", f"or={PHOTO_OWNER}, dt={p}"), p))

    assert len(events) == 5 * d, (len(events), d)
    trace = "trace {\n" + "\n".join(events) + "\n}\n"
    return AuditCase(d, policy, trace, len(events), sorted(expected))


# ---------------------------------------------------------------------------
# small-models: a port of tests/modelgen.py that writes documents directly.
# Apart from the shape, it draws from the generator in modelgen's order.

USER_POOL = ("u1", "u2", "u3", "u4")
PURPOSE_POOL = ("billing", "research", "support")
UNARY_POOL = (("fav", "unfav"), ("pin", "unpin"))
BINARY_POOL = (("link", "unlink"), ("cite", "uncite"))
TYPE_POOL = ("Email", "UpPhotos", "Notes")
STORAGE_CHOICES = (
    ("clientloc", "plain"),
    ("sploc", "plain"),
    ("sploc", "enc(spkey)"),
    ("sploc", "enc(clkey)"),
)
# Provider possession activities the storage mapping yields for each choice
# (docs: a client copy yields none; enc(spkey) yields the ciphertext and the key).
POSSESSIONS = {
    ("clientloc", "plain"): 0,
    ("sploc", "plain"): 1,
    ("sploc", "enc(spkey)"): 2,
    ("sploc", "enc(clkey)"): 1,
}


@dataclass(frozen=True)
class Action:
    name: str
    binary: bool


@dataclass
class Datum:
    ident: str
    ow: str
    ds: frozenset[str]
    dtype: str
    can: dict[str, frozenset[str]]
    by: dict[str, dict[str, frozenset[str]]]
    been: dict[str, dict[str, frozenset[str]]]
    purposes: frozenset[str]
    delay: int
    storage: tuple[str, str]

    @property
    def sp_readable(self) -> bool:
        return self.storage in (("sploc", "plain"), ("sploc", "enc(spkey)"))


@dataclass
class Model:
    a1: list[Action] = field(default_factory=list)
    ua1: list[Action] = field(default_factory=list)
    a2: list[Action] = field(default_factory=list)
    ua2: list[Action] = field(default_factory=list)
    data: dict[str, Datum] = field(default_factory=dict)

    def actions(self) -> list[Action]:
        return self.a1 + self.ua1 + self.a2 + self.ua2

    def users(self) -> list[str]:
        seen: set[str] = set()
        for d in self.data.values():
            seen.add(d.ow)
            seen |= d.ds
            for users in d.can.values():
                seen |= users
            for table in (d.by, d.been):
                for per_user in table.values():
                    seen |= set(per_user)
                    for granted in per_user.values():
                        seen |= granted
        seen.discard("sp")
        return sorted(seen)


def random_model(rng: random.Random, shape: tuple[int, int, int, int]) -> Model:
    """modelgen.random_model with the counts of users, unary action pairs,
    binary action pairs and data given by ``shape`` instead of drawn."""
    n_users, n_unary, n_binary, n_data = shape
    users = list(USER_POOL[:n_users])
    m = Model()
    for base, rev in UNARY_POOL[:n_unary]:
        m.a1.append(Action(base, False))
        m.ua1.append(Action(rev, False))
    for base, rev in BINARY_POOL[:n_binary]:
        m.a2.append(Action(base, True))
        m.ua2.append(Action(rev, True))

    for k in range(n_data):
        ident = f"d{k + 1}"
        ow = rng.choice(users)
        ds = frozenset(rng.sample(users, rng.randint(1, len(users)))) | {ow}
        dtype = rng.choice(TYPE_POOL)
        can = {"delete": frozenset({ow})}
        by: dict[str, dict[str, frozenset[str]]] = {}
        been: dict[str, dict[str, frozenset[str]]] = {}
        for act in m.actions():
            chosen = frozenset(rng.sample(users, rng.randint(0, len(users))))
            if chosen:
                can[act.name] = chosen
        for acts, table_of in ((m.a1 + m.a2, by), (m.a2, been)):
            for act in acts:
                table = {}
                for u in users:
                    if rng.random() < 0.6:
                        chosen = frozenset(rng.sample(users, rng.randint(0, len(users))))
                        if chosen:
                            table[u] = chosen
                if table:
                    table_of[act.name] = table
        storage = rng.choice(STORAGE_CHOICES)
        purposes = frozenset(rng.sample(PURPOSE_POOL, rng.randint(1, len(PURPOSE_POOL))))
        delay = rng.randint(2, 10)
        m.data[ident] = Datum(ident, ow, ds, dtype, can, by, been, purposes, delay, storage)
    return m


def _set(items) -> str:
    return "{" + ", ".join(sorted(items)) + "}"


def policy_text(m: Model) -> str:
    lines = ["actions {"]
    lines += [f"  unary {b.name}/{r.name};" for b, r in zip(m.a1, m.ua1)]
    lines += [f"  binary {b.name}/{r.name};" for b, r in zip(m.a2, m.ua2)]
    lines.append("}")
    for ident in sorted(m.data):
        d = m.data[ident]
        lines += [
            f"data {ident} {{",
            f"  ow = {d.ow};",
            f"  ds = {_set(d.ds)};",
            f"  type = {d.dtype};",
            "  policy {",
            f"    purposes = {_set(d.purposes)};",
            f"    delete = {{man:{d.delay}}};",
            f"    where = {{{d.storage[0]}}};",
            f"    how = {{{d.storage[1]}}};",
        ]
        lines += [f"    can {a} = {_set(u)};" for a, u in sorted(d.can.items())]
        for which, table in (("by", d.by), ("been", d.been)):
            for a in sorted(table):
                lines += [f"    has {which} {a} {u} = {_set(g)};" for u, g in sorted(table[a].items())]
        lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


# An event is (surface name, datum, fields without t); t is its position.
Event = tuple[str, str, str]


def trace_text(events: list[Event]) -> str:
    body = [f"  {name}(t={t}, {fields});" for t, (name, _, fields) in enumerate(events, start=1)]
    return "trace {\n" + "\n".join(body) + ("\n" if body else "") + "}\n"


def _act_fields(act: Action, actor: str, tar: str | None, ident: str) -> str:
    return f"or={actor}, tar={tar}, dt={ident}" if act.binary else f"or={actor}, dt={ident}"


def compliant_trace(m: Model, rng: random.Random, max_len: int = 20) -> list[Event]:
    """Audits clean: no group events, performers drawn from the can-groups,
    and every deletion request honoured on the next tick."""
    users = m.users()
    out: list[Event] = []
    alive: set[str] = set()
    order = sorted(m.data)
    rng.shuffle(order)
    for ident in order:
        out.append(("own", ident, f'or={m.data[ident].ow}, dt={ident}, value="v-{ident}"'))
        alive.add(ident)

    while len(out) < max_len - 1 and alive:
        ident = rng.choice(sorted(alive))
        d = m.data[ident]
        choice = rng.random()
        if choice < 0.25:
            out.append(("store", ident, f"dt={ident}"))
        elif choice < 0.5:
            purposes = rng.sample(sorted(d.purposes), rng.randint(0, len(d.purposes)))
            out.append(("use", ident, f"dt={ident}, purposes={_set(purposes)}"))
        elif choice < 0.85 and m.actions():
            act = rng.choice(m.actions())
            performers = sorted(d.can.get(act.name, ()))
            if not performers:
                continue
            actor = rng.choice(performers)
            tar = rng.choice(users) if act.binary else None
            out.append((act.name, ident, _act_fields(act, actor, tar, ident)))
        elif choice < 0.92 and len(alive) > 1:
            out.append(("deletereq", ident, f"or={d.ow}, dt={ident}"))
            out.append(("delete", ident, f"dt={ident}"))
            alive.discard(ident)
    return out


def full_events(m: Model) -> list[Event]:
    """One event per entry of each datum's possible-event inventory, with
    pattern principals: the derivation input covering every trace."""
    out: list[Event] = []
    for ident in sorted(m.data):
        d = m.data[ident]
        out.append(("own", ident, f'or={d.ow}, dt={ident}, value="v-{ident}"'))
        out.append(("store", ident, f"dt={ident}"))
        out.append(("use", ident, f"dt={ident}, purposes={_set(d.purposes)}"))
        out.append(("deletereq", ident, f"or=?i, dt={ident}"))
        out.append(("delete", ident, f"dt={ident}"))
        for act in m.a1 + m.a2:
            out.append((f"group{act.name}", ident, f"or=?i, tar=?tar, dt={ident}"))
            out.append((f"ungroup{act.name}", ident, f"or=?i, tar=?tar, dt={ident}"))
        out.append(("grouphas", ident, f"or=?i, tar=?tar, dt={ident}"))
        out.append(("ungrouphas", ident, f"or=?i, tar=?tar, dt={ident}"))
        for act in m.actions():
            out.append((act.name, ident, _act_fields(act, "?i", "?tar", ident)))
    return out


def _alive_after(events: list[Event]) -> list[str]:
    dead = {ident for name, ident, _ in events if name == "delete"}
    owned = {ident for name, ident, _ in events if name == "own"}
    return sorted(owned - dead)


def _breakable(m: Model, events: list[Event], rule: str) -> list[str]:
    """Data still alive on which ``rule`` can be broken (C4 needs one stored
    at the client only)."""
    alive = _alive_after(events)
    return [i for i in alive if not m.data[i].sp_readable] if rule == "C4" else alive


def inject(m: Model, events: list[Event], rule: str, rng: random.Random):
    """Append one violation of ``rule``; returns the new trace and the
    (rule, event index, datum) the audit must report."""
    ident = rng.choice(_breakable(m, events, rule))
    ow = m.data[ident].ow
    if rule == "C1":
        bad = [("use", ident, f"dt={ident}, purposes={{smuggled-purpose}}")]
    elif rule == "C2" and m.actions():
        act = rng.choice(m.actions())
        bad = [(act.name, ident, _act_fields(act, "mallory", ow, ident))]
    elif rule == "C2":
        # no declared actions: the delete is attributed to an unpermitted requester
        bad = [("deletereq", ident, f"or=mallory, dt={ident}"), ("delete", ident, f"dt={ident}")]
    elif rule == "C3":
        bad = [("grouphas", ident, f"or={ow}, tar=eve, dt={ident}")]
    elif rule == "C4":
        bad = [("grouphas", ident, f"or={ow}, tar=sp, dt={ident}")]
    else:
        bad = [("deletereq", ident, f"or={ow}, dt={ident}")]
    out = events + bad
    return out, (rule, len(out), ident)


def image_length(m: Model, events: list[Event]) -> int:
    """Events in the architecture image: use is dropped, store becomes one
    possession per provider-held form, everything else maps one to one."""
    n = 0
    for name, ident, _ in events:
        if name == "store":
            n += POSSESSIONS[m.data[ident].storage]
        elif name != "use":
            n += 1
    return n


@dataclass
class ModelCase:
    policy: str
    clean: str
    clean_length: int  # events in the architecture image of the clean trace
    injected: str
    violation: tuple[str, int, str]
    full: str


def model_case(rng: random.Random, shape: tuple[int, int, int, int]) -> ModelCase:
    m = random_model(rng, shape)
    clean = compliant_trace(m, rng)
    rules = [r for r in ("C1", "C2", "C3", "C4", "C5") if _breakable(m, clean, r)]
    bad, violation = inject(m, clean, rng.choice(rules), rng)
    return ModelCase(policy_text(m), trace_text(clean), image_length(m, clean),
                     trace_text(bad), violation, trace_text(full_events(m)))


# ---------------------------------------------------------------------------
# The deduction-soundness instances of the acceptance suite: two users plus the
# provider, one variable, one unary action, traces of length <= 4 (128 cases).


def deduction_instances():
    def subsets(items):
        return [frozenset(c) for n in range(len(items) + 1)
                for c in itertools.combinations(items, n)]

    users = ("alice", "bob")
    x = Var(ow="alice", ds=frozenset(users), ident="d1")
    out = []
    for can, by_bob, with_possess, with_delete, performer in itertools.product(
        subsets(users), subsets(users), (False, True), (False, True), users
    ):
        perms = ArchPerms(can={"fav": can} if can else {},
                          by={"fav": {"bob": by_bob}} if by_bob else {})
        activities = {Own("alice", x), Act1("?i", "fav", x)}
        if with_possess:
            activities.add(Possess(x))
        if with_delete:
            activities |= {DeleteReq("?i", x), Delete(x, 2)}
        trace = [
            ArchEvent("own", 1, user="alice", term=x, value="v"),
            ArchEvent("act1", 2, user=performer, action="fav", term=x, value="v"),
        ]
        if with_delete:
            trace.append(ArchEvent("deletereq", 3, user="bob", term=x))
            trace.append(ArchEvent("delete", 4, user=SP, term=x))
        out.append((Architecture(activities=frozenset(activities), perms=perms), trace, users))
    return out
