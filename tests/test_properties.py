"""Property tests for the cross-cutting invariants: prefix coherence, the
frame property, guard fall-through, group-event inverses, have-set
monotonicity, enumeration monotonicity, and serialization round trips."""

import hashlib
import random

from hypothesis import given, settings, strategies as st

from datactl.architecture import Act1, Architecture, Own, Universe, Var, enumerate_states
from datactl.dsl import parse_policy, parse_trace, serialize_policy, serialize_trace
from datactl.model import Perms
from datactl.semantics import (
    ACT_KINDS,
    GROUPACT,
    GROUPHAS,
    OWN,
    UNGROUPACT,
    UNGROUPHAS,
    AbstractEvent,
    iter_states,
    possible_events,
    run_trace,
    step,
)

from modelgen import compliant_trace, inject_c2, random_model

seeds = st.integers(min_value=0, max_value=2**32 - 1)

USERS = st.sampled_from(("u1", "u2", "u3", "u4"))
USER_SETS = st.frozensets(USERS, max_size=4)
GRANTS = st.dictionaries(USERS, USER_SETS, max_size=4)


def _model_and_trace(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    return model, compliant_trace(model, rng)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_prefix_coherence(seed):
    """Each prefix state is its predecessor with one ``step`` on the event's
    datum, and the fold of that prefix."""
    model, trace = _model_and_trace(seed)
    states = list(iter_states(trace, model.sets))
    for i, e in enumerate(trace):
        entry = step(states[i].get(e.dt), e, i + 1, model.sets)
        assert states[i + 1] == {**states[i], e.dt: entry}
        assert run_trace(trace[:i], model.sets) == states[i]
    assert run_trace(trace, model.sets) == states[-1]


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_frame_property(seed):
    """Each step touches only the event's datum; datum identity never drifts."""
    model, trace = _model_and_trace(seed)
    states = list(iter_states(trace, model.sets))
    for i, e in enumerate(trace):
        before, after = states[i], states[i + 1]
        for dt in set(before) | set(after):
            if dt != e.dt:
                assert before.get(dt) == after.get(dt)
    for state in states:
        for dt, entry in state.items():
            if entry is not None:
                assert dt == model.data[dt.ident]


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_guard_fallthrough(seed):
    """Actions by a performer outside the can-group are identities."""
    model, trace = _model_and_trace(seed)
    state = run_trace(trace, model.sets)
    for ident, dt in model.data.items():
        if state.get(dt) is None:
            continue
        for template in possible_events(model.sets):
            if template.kind not in ACT_KINDS:
                continue
            tar = dt.ow if template.binary else None
            e = AbstractEvent(kind=template.kind, t=10_000, dt=dt, actor="stranger",
                              tar=tar, action=template.action)
            assert step(state[dt], e, len(trace) + 1, model.sets) is state[dt]


@given(seeds, USERS)
@settings(max_examples=40, deadline=None)
def test_group_inverse(seed, tar):
    """grant-then-revoke restores the can-group, the has-group and the holder
    set when the target held none of them beforehand."""
    model, trace = _model_and_trace(seed)
    state = run_trace(trace, model.sets)
    for ident, dt in model.data.items():
        entry = state.get(dt)
        if entry is None or not model.sets.base_names():
            continue
        action = model.sets.base_names()[0]
        perms = entry.policy.perms
        if tar in entry.h_has or tar in perms.can_do(action) or tar in perms.group:
            continue
        for grant_kind, revoke_kind, edited in ((GROUPACT, UNGROUPACT, action),
                                                (GROUPHAS, UNGROUPHAS, None)):
            grant = AbstractEvent(kind=grant_kind, t=10_000, dt=dt, actor=dt.ow,
                                  tar=tar, action=edited)
            revoke = AbstractEvent(kind=revoke_kind, t=10_001, dt=dt, actor=dt.ow,
                                   tar=tar, action=edited)
            granted = step(entry, grant, len(trace) + 1, model.sets)
            out = step(granted, revoke, len(trace) + 2, model.sets)
            assert out.h_has == entry.h_has
            assert out.policy.perms.can_do(action) == perms.can_do(action)
            assert out.policy.perms.group == perms.group


@given(GRANTS, GRANTS, USERS, USERS, USERS, USER_SETS)
def test_have_set_monotonicity(by, been, i, tar, ow, extra):
    """Enlarging any single grant set never shrinks the permitted-holder set."""
    perms = Perms(by={"fav": by}, been={"fav": been})
    base1 = perms.holders("fav", i)
    base2 = perms.holders("fav", i, tar)
    for key in (i, ow, tar):
        wider = dict(by)
        wider[key] = wider.get(key, frozenset()) | extra
        wider_by = Perms(by={"fav": wider}, been={"fav": been})
        assert base1 <= wider_by.holders("fav", i)
        assert base2 <= wider_by.holders("fav", i, tar)
        wider_been = dict(been)
        wider_been[key] = wider_been.get(key, frozenset()) | extra
        assert base2 <= Perms(by={"fav": by}, been={"fav": wider_been}).holders("fav", i, tar)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_document_round_trips(seed):
    model, trace = _model_and_trace(seed)
    text = serialize_policy(model)
    assert serialize_policy(parse_policy(text)) == text
    ttext = serialize_trace(trace, model)
    assert serialize_trace(parse_trace(ttext, model), model) == ttext


def test_generator_output_is_stable():
    """Seeds 0-199 keep drawing the same models, compliant traces and C2
    injections: a digest of their documents, the same under any hash seed."""
    digest = hashlib.sha256()
    for seed in range(200):
        rng = random.Random(seed)
        model = random_model(rng)
        trace = compliant_trace(model, rng)
        for text in (serialize_policy(model), serialize_trace(trace, model),
                     serialize_trace(inject_c2(model, trace, rng), model)):
            digest.update(text.encode())
    assert digest.hexdigest() == (
        "e8eab5a1d6d986e75107719ca6ec62282bc145f093f64c7037c32025d2125167")


def test_enumeration_monotone_in_bound():
    x = Var(ow="alice", ds=frozenset({"alice", "bob"}), ident="d1")
    pa = Architecture(
        activities=frozenset({Own("alice", x), Act1("?i", "fav", x)}),
        perms=Perms(can={"fav": frozenset({"alice", "bob"})},
                    by={"fav": {"alice": frozenset({"alice", "bob"}),
                                "bob": frozenset({"bob"})}}),
    )
    universe = Universe(users=("alice", "bob"))
    previous = None
    for bound in range(4):
        states = enumerate_states(pa, bound, universe)
        if previous is not None:
            assert previous <= states
        previous = states
