"""Seeded random generation of small policy models, compliant traces, and
single-rule violation injections, shared across the test modules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from datactl.model import (
    SP,
    ActivitySets,
    DataRef,
    DeletionSpec,
    Perms,
    Policy,
    PolicyModel,
    StorageSpec,
)
from datactl.semantics import (
    ACT_KINDS,
    DELETE,
    DELETEREQ,
    GROUPHAS,
    OWN,
    STORE,
    USE,
    AbstractEvent,
    EventTemplate,
    possible_events,
)

USER_POOL = ("u1", "u2", "u3", "u4")
PURPOSE_POOL = ("billing", "research", "support")
UNARY_POOL = (("fav", "unfav"), ("pin", "unpin"))
BINARY_POOL = (("link", "unlink"), ("cite", "uncite"))
TYPE_POOL = ("Email", "UpPhotos", "Notes")

STORAGE_CHOICES = (
    (frozenset({"clientloc"}), frozenset({("plain", "none")})),
    (frozenset({"sploc"}), frozenset({("plain", "none")})),
    (frozenset({"sploc"}), frozenset({("enc", "spkey")})),
    (frozenset({"sploc"}), frozenset({("enc", "clkey")})),
)


def random_model(rng: random.Random) -> PolicyModel:
    users = list(USER_POOL[: rng.randint(2, 4)])

    sets = ActivitySets(unary=UNARY_POOL[: rng.randint(0, 2)],
                        binary=BINARY_POOL[: rng.randint(0, 2)])

    model = PolicyModel(sets=sets)
    for k in range(rng.randint(1, 3)):
        ident = f"d{k + 1}"
        ow = rng.choice(users)
        ds = frozenset(rng.sample(users, rng.randint(1, len(users)))) | {ow}
        dt = DataRef(ow=ow, ds=ds, dtype=rng.choice(TYPE_POOL), ident=ident)

        can: dict[str, frozenset[str]] = {"delete": frozenset({ow})}
        by: dict[str, dict[str, frozenset[str]]] = {}
        been: dict[str, dict[str, frozenset[str]]] = {}
        # Empty grant sets are omitted: they are semantically identical to
        # absent entries and the canonical serializer drops them.
        for action in sets.names():
            chosen = frozenset(rng.sample(users, rng.randint(0, len(users))))
            if chosen:
                can[action] = chosen
        for action in sets.base_names():
            table = {}
            for u in users:
                if rng.random() < 0.6:
                    chosen = frozenset(rng.sample(users, rng.randint(0, len(users))))
                    if chosen:
                        table[u] = chosen
            if table:
                by[action] = table
        for action, _ in sets.binary:
            table = {}
            for u in users:
                if rng.random() < 0.6:
                    chosen = frozenset(rng.sample(users, rng.randint(0, len(users))))
                    if chosen:
                        table[u] = chosen
            if table:
                been[action] = table

        wh, ho = rng.choice(STORAGE_CHOICES)
        pol = Policy(
            ap=frozenset(rng.sample(PURPOSE_POOL, rng.randint(1, len(PURPOSE_POOL)))),
            dm=DeletionSpec((("man", rng.randint(2, 10)),)),
            storage=StorageSpec(wh=wh, ho=ho),
            perms=Perms(can, by=by, been=been, group=frozenset()),
        )
        model.data[ident] = dt
        model.policies[ident] = pol
    return model


def _act_templates(sets: ActivitySets) -> list[EventTemplate]:
    """The templates of the declared actions and un-actions, in inventory order."""
    return [t for t in possible_events(sets) if t.kind in ACT_KINDS]


@dataclass
class TraceState:
    """Book-keeping while growing a compliant trace."""

    t: int = 0

    def tick(self) -> int:
        self.t += 1
        return self.t


def compliant_trace(model: PolicyModel, rng: random.Random, max_len: int = 20):
    """A trace that audits clean: group events are never emitted (their holder
    additions are not sanctioned by any clause of the holder rule), action
    performers are always drawn from the permitting groups, and every deletion
    request is honoured on the next tick."""
    users = sorted(model.users())
    clock = TraceState()
    trace: list[AbstractEvent] = []
    alive: set[str] = set()
    acts = _act_templates(model.sets)

    order = sorted(model.data)
    rng.shuffle(order)
    for ident in order:
        dt = model.data[ident]
        trace.append(
            AbstractEvent(
                kind=OWN, t=clock.tick(), dt=dt, actor=dt.ow,
                value=f"v-{ident}", policy=model.policy_of(dt),
            )
        )
        alive.add(ident)

    while len(trace) < max_len - 1 and alive:
        ident = rng.choice(sorted(alive))
        dt = model.data[ident]
        pol = model.policy_of(dt)
        choice = rng.random()
        if choice < 0.25:
            trace.append(AbstractEvent(kind=STORE, t=clock.tick(), dt=dt))
        elif choice < 0.5:
            purposes = frozenset(rng.sample(sorted(pol.ap), rng.randint(0, len(pol.ap))))
            trace.append(AbstractEvent(kind=USE, t=clock.tick(), dt=dt, purposes=purposes))
        elif choice < 0.85 and acts:
            act = rng.choice(acts)
            performers = sorted(pol.perms.can_do(act.action))
            if not performers:
                continue
            actor = rng.choice(performers)
            tar = rng.choice(users) if act.binary else None
            trace.append(
                AbstractEvent(kind=act.kind, t=clock.tick(), dt=dt, actor=actor,
                              tar=tar, action=act.action)
            )
        elif choice < 0.92 and len(alive) > 1:
            # Deletion pair: request then honour it on the next tick.
            trace.append(AbstractEvent(kind=DELETEREQ, t=clock.tick(), dt=dt, actor=dt.ow))
            trace.append(AbstractEvent(kind=DELETE, t=clock.tick(), dt=dt))
            alive.discard(ident)
    return trace


def full_events(model: PolicyModel) -> list[AbstractEvent]:
    """One event per entry of each datum's possible-event inventory, with
    pattern principals.  Used to derive the architecture that covers every
    possible trace of the model."""
    out: list[AbstractEvent] = []
    for ident in sorted(model.data):
        dt = model.data[ident]
        pol = model.policy_of(dt)
        for template in possible_events(model.sets):
            if template.kind == OWN:
                fields = dict(actor=dt.ow, value=f"v-{ident}", policy=pol)
            elif template.kind == USE:
                fields = dict(purposes=pol.ap)
            elif template.kind in (STORE, DELETE):
                fields = {}
            else:
                fields = dict(actor="?i", tar="?tar" if template.binary else None,
                              action=template.action)
            out.append(AbstractEvent(kind=template.kind, t=len(out) + 1, dt=dt, **fields))
    return out


def _alive_after(model: PolicyModel, trace) -> list[DataRef]:
    dead = {e.dt.ident for e in trace if e.kind == DELETE}
    owned = {e.dt.ident for e in trace if e.kind == OWN}
    return [model.data[i] for i in sorted(owned - dead)]


def _next_t(trace) -> int:
    return (trace[-1].t if trace else 0) + 1


def inject_c1(model: PolicyModel, trace, rng: random.Random):
    dt = rng.choice(_alive_after(model, trace))
    bad = AbstractEvent(kind=USE, t=_next_t(trace), dt=dt,
                        purposes=frozenset({"smuggled-purpose"}))
    return trace + [bad]


def inject_c2(model: PolicyModel, trace, rng: random.Random):
    dt = rng.choice(_alive_after(model, trace))
    acts = _act_templates(model.sets)
    if acts:
        act = rng.choice(acts)
        tar = dt.ow if act.binary else None
        bad = AbstractEvent(kind=act.kind, t=_next_t(trace), dt=dt, actor="mallory",
                            tar=tar, action=act.action)
        return trace + [bad]
    # No declared actions: an unpermitted deletion request followed by the
    # deletion attributes the delete to a non-member of the delete group.
    t = _next_t(trace)
    return trace + [
        AbstractEvent(kind=DELETEREQ, t=t, dt=dt, actor="mallory"),
        AbstractEvent(kind=DELETE, t=t + 1, dt=dt),
    ]


def inject_c3(model: PolicyModel, trace, rng: random.Random):
    dt = rng.choice(_alive_after(model, trace))
    bad = AbstractEvent(kind=GROUPHAS, t=_next_t(trace), dt=dt, actor=dt.ow, tar="eve")
    return trace + [bad]


def inject_c4(model: PolicyModel, trace, rng: random.Random):
    """Requires a datum whose policy grants no readable provider storage."""
    candidates = [dt for dt in _alive_after(model, trace)
                  if not model.policy_of(dt).storage.sp_readable()]
    if not candidates:
        return None
    dt = rng.choice(candidates)
    bad = AbstractEvent(kind=GROUPHAS, t=_next_t(trace), dt=dt, actor=dt.ow, tar=SP)
    return trace + [bad]


def inject_c5(model: PolicyModel, trace, rng: random.Random):
    dt = rng.choice(_alive_after(model, trace))
    bad = AbstractEvent(kind=DELETEREQ, t=_next_t(trace), dt=dt, actor=dt.ow)
    return trace + [bad]


INJECTORS = {
    "C1": inject_c1,
    "C2": inject_c2,
    "C3": inject_c3,
    "C4": inject_c4,
    "C5": inject_c5,
}
