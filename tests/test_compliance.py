"""Unit coverage for each audit rule, seeded injection detection, and a
differential check of the one-pass auditor against the rules read literally."""

import random
from pathlib import Path

import pytest

from datactl.compliance import RULES, ComplianceReport, Violation, check_rule, check_trace
from datactl.dsl import parse_policy, parse_trace, sniff_kind
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
    GROUP_KINDS,
    GROUPHAS,
    OWN,
    STORE,
    UNACT1,
    UNACT2,
    USE,
    AbstractEvent,
    SemanticsError,
    iter_states,
    possible_events,
)

from modelgen import INJECTORS, compliant_trace, full_events, random_model

SETS = ActivitySets(unary=(("fav", "unfav"),))

DT = DataRef(ow="alice", ds=frozenset({"alice"}), dtype="Notes", ident="d1")

POL = Policy(
    ap=frozenset({"billing"}),
    dm=DeletionSpec((("man", 3),)),
    storage=StorageSpec(wh=frozenset({"sploc"}), ho=frozenset({("enc", "clkey")})),
    perms=Perms({"fav": frozenset({"bob"}), "delete": frozenset({"alice"})},
                by={"fav": {"bob": frozenset({"carol"})}}),
)


def base_trace():
    return [AbstractEvent(kind=OWN, t=1, dt=DT, actor="alice", value="v", policy=POL)]


def rules_of(violations):
    return sorted({v.rule for v in violations})


def test_c1_flags_unauthorized_purpose():
    trace = base_trace() + [
        AbstractEvent(kind=USE, t=2, dt=DT, purposes=frozenset({"billing", "ads"}))
    ]
    found = check_rule("C1", trace, SETS)
    assert len(found) == 1 and found[0].event_index == 2
    assert "ads" in found[0].detail


def test_c1_clean_on_authorized_purpose():
    trace = base_trace() + [
        AbstractEvent(kind=USE, t=2, dt=DT, purposes=frozenset({"billing"}))
    ]
    assert check_rule("C1", trace, SETS) == []


def test_c2_flags_unpermitted_performer():
    trace = base_trace() + [
        AbstractEvent(kind=ACT1, t=2, dt=DT, actor="mallory", action="fav")
    ]
    found = check_rule("C2", trace, SETS)
    assert rules_of(found) == ["C2"] and found[0].event_index == 2


def test_c2_attributes_delete_to_last_request():
    trace = base_trace() + [
        AbstractEvent(kind=DELETEREQ, t=2, dt=DT, actor="bob"),
        AbstractEvent(kind=DELETE, t=3, dt=DT),
    ]
    found = check_rule("C2", trace, SETS)
    assert len(found) == 1 and "'bob'" in found[0].detail


def test_c2_warns_on_unattributed_delete():
    trace = base_trace() + [AbstractEvent(kind=DELETE, t=2, dt=DT)]
    report = check_trace(trace, SETS)
    assert report.compliant
    assert any("no preceding deletereq" in w for w in report.warnings)


def test_data_sharing_an_ident_stay_apart():
    """A ref hashes by its ident alone, but refs that differ elsewhere are
    still distinct keys: each keeps its own entry, holders and violations."""
    twin = DataRef(ow="bob", ds=frozenset({"bob"}), dtype="Notes", ident="d1")
    assert hash(DT) == hash(DataRef(ow="alice", ds=frozenset({"alice"}), dtype="Notes", ident="d1"))
    assert twin != DT and len({DT, twin}) == 2
    trace = base_trace() + [
        AbstractEvent(kind=OWN, t=2, dt=twin, actor="bob", value="w", policy=POL),
        AbstractEvent(kind=GROUPHAS, t=3, dt=DT, actor="alice", tar="carol"),
        AbstractEvent(kind=GROUPHAS, t=4, dt=twin, actor="bob", tar="carol"),
        AbstractEvent(kind=GROUPHAS, t=5, dt=twin, actor="bob", tar="alice"),
        AbstractEvent(kind=USE, t=6, dt=twin, purposes=frozenset({"ads"})),
    ]
    found = [(v.rule, v.event_index, v.datum) for v in check_trace(trace, SETS).violations]
    assert found == [("C1", 6, twin), ("C3", 3, DT), ("C3", 4, twin), ("C3", 5, twin)]


def test_c3_flags_unsanctioned_holder():
    trace = base_trace() + [
        AbstractEvent(kind=GROUPHAS, t=2, dt=DT, actor="alice", tar="eve")
    ]
    found = check_rule("C3", trace, SETS)
    assert len(found) == 1 and "'eve'" in found[0].detail


def test_c3_accepts_action_sanctioned_holder():
    trace = base_trace() + [
        AbstractEvent(kind=ACT1, t=2, dt=DT, actor="bob", action="fav")
    ]
    assert check_rule("C3", trace, SETS) == []


def test_c3_owner_always_sanctioned():
    assert check_rule("C3", base_trace(), SETS) == []


def test_unaction_withdraws_through_its_declared_pair():
    """``defav`` takes back ``fav`` though its name does not start with ``un``.
    The un-action comes at an earlier time than the grant, so a holder it
    failed to withdraw would hold the datum before any sanction: C3 shows it,
    as the control with an un-action of another pair does."""
    sets = ActivitySets(unary=(("fav", "defav"), ("pin", "unpin")))
    pol = POL._replace(perms=Perms({name: frozenset({"bob"}) for name in sets.names()},
                                   by={"fav": {"bob": frozenset({"carol"})}}))
    trace = [AbstractEvent(kind=OWN, t=1, dt=DT, actor="alice", value="v", policy=pol),
             AbstractEvent(kind=ACT1, t=10, dt=DT, actor="bob", action="fav")]
    undo = AbstractEvent(kind=UNACT1, t=2, dt=DT, actor="bob", action="defav")
    assert check_trace(trace + [undo], sets) == ComplianceReport()
    report = check_trace(trace + [undo._replace(action="unpin")], sets)
    assert [(v.rule, v.event_index, v.detail) for v in report.violations] == [
        ("C3", 3, "'carol' holds the datum without ownership or a sanctioning action")]


def test_c4_flags_provider_without_readable_storage():
    trace = base_trace() + [
        AbstractEvent(kind=GROUPHAS, t=2, dt=DT, actor="alice", tar=SP)
    ]
    found = check_rule("C4", trace, SETS)
    assert rules_of(found) == ["C4"]
    # C3 does not double-report the provider
    assert check_rule("C3", trace, SETS) == []


def test_c4_accepts_provider_with_readable_storage():
    readable = Policy(ap=POL.ap, dm=POL.dm,
                      storage=StorageSpec(wh=frozenset({"sploc"}),
                                          ho=frozenset({("enc", "spkey")})),
                      perms=POL.perms)
    trace = [
        AbstractEvent(kind=OWN, t=1, dt=DT, actor="alice", value="v", policy=readable),
        AbstractEvent(kind=STORE, t=2, dt=DT),
    ]
    assert check_rule("C4", trace, SETS) == []


def test_c5_flags_unhonoured_request():
    trace = base_trace() + [AbstractEvent(kind=DELETEREQ, t=2, dt=DT, actor="alice")]
    found = check_rule("C5", trace, SETS)
    assert len(found) == 1 and "t=2" in found[0].detail


def test_c5_deadline_is_inclusive():
    honoured = base_trace() + [
        AbstractEvent(kind=DELETEREQ, t=2, dt=DT, actor="alice"),
        AbstractEvent(kind=DELETE, t=5, dt=DT),  # exactly t + dd
    ]
    assert check_rule("C5", honoured, SETS) == []

    late = base_trace() + [
        AbstractEvent(kind=DELETEREQ, t=2, dt=DT, actor="alice"),
        AbstractEvent(kind=DELETE, t=6, dt=DT),  # one past the deadline
    ]
    assert rules_of(check_rule("C5", late, SETS)) == ["C5"]


def test_unknown_rule_rejected():
    with pytest.raises(ValueError):
        check_rule("C9", base_trace(), SETS)
    with pytest.raises(ValueError):
        check_rule("C9", [AbstractEvent(kind=STORE, t=1, dt=DT)], SETS)  # before any event


def test_broken_trace_surfaces_position():
    trace = [AbstractEvent(kind=STORE, t=1, dt=DT)]
    with pytest.raises(SemanticsError):
        check_trace(trace, SETS)


def test_violation_render_is_tab_separated():
    v = Violation("C1", DT, "purpose 'ads' not authorized", event_index=3)
    assert v.render().split("\t") == ["C1", "3", "d1", "purpose 'ads' not authorized"]


def test_generated_compliant_traces_audit_clean():
    for seed in range(40):
        rng = random.Random(seed)
        model = random_model(rng)
        trace = compliant_trace(model, rng)
        report = check_trace(trace, model.sets)
        assert report.compliant, f"seed {seed}: {report.render()}"


def test_injections_detected_with_exact_rule():
    detected = {rule: 0 for rule in RULES}
    for seed in range(40):
        rng = random.Random(1000 + seed)
        model = random_model(rng)
        trace = compliant_trace(model, rng)
        for rule, inject in INJECTORS.items():
            mutated = inject(model, list(trace), rng)
            if mutated is None:
                continue  # injection inapplicable for this model
            report = check_trace(mutated, model.sets)
            assert rules_of(report.violations) == [rule], (
                f"seed {seed} rule {rule}: {report.render()}"
            )
            detected[rule] += 1
    for rule, n in detected.items():
        assert n > 0, f"injector {rule} never applied"


# --- differential oracle: the rules judged on every prefix state -------------


def _sanctioned(trace, states, i, dt, user, t):
    """Whether a declared action at a position <= i and a time <= t, whose
    guard held, added ``user`` to the holders of ``dt``."""
    for k, a in enumerate(trace[:i], start=1):
        if a.kind not in (ACT1, ACT2) or a.dt != dt or a.t > t:
            continue
        pol = states[k - 1].get(dt).policy
        if a.actor not in pol.perms.can_do(a.action):
            continue
        gained = pol.perms.by.get(a.action, {}).get(a.actor, frozenset())
        if a.kind == ACT2:
            gained &= pol.perms.been.get(a.action, {}).get(a.tar, frozenset())
        if user in gained:
            return True
    return False


def reference_audit(trace, sets):
    """C1-C5 as stated: C1/C2/C5 at each event against the state before it
    (C2's delete performer is the latest earlier deletereq, C5 looks at every
    delete in the trace), C3/C4 on every datum of every prefix state, each
    finding reported once."""
    states = list(iter_states(trace, sets))
    found = {rule: [] for rule in RULES}
    warnings = []
    c3_seen, c4_seen = set(), set()
    for i, e in enumerate(trace, start=1):
        pol = states[i - 1].get(e.dt).policy if e.kind != OWN else None
        if e.kind == USE:
            for purpose in sorted((e.purposes or frozenset()) - pol.ap):
                found["C1"].append(
                    Violation("C1", e.dt, f"purpose {purpose!r} not authorized", i))
        if e.kind in (ACT1, UNACT1, ACT2, UNACT2, DELETE):
            actor, action = e.actor, e.action
            if e.kind == DELETE:
                requesters = [r.actor for r in trace[: i - 1]
                              if r.kind == DELETEREQ and r.dt == e.dt]
                actor, action = (requesters[-1] if requesters else None), "delete"
            if e.kind == DELETE and actor is None:
                warnings.append(f"C2 skipped for delete at event {i}: "
                                "no preceding deletereq names a performer")
            elif actor not in pol.perms.can_do(action):
                found["C2"].append(Violation(
                    "C2", e.dt, f"{actor!r} not permitted to perform {action!r}", i))
        for dt, entry in states[i].items():
            if entry is None:
                continue
            for tar in sorted(entry.h_has - {SP, dt.ow}):
                if (dt, tar) not in c3_seen and not _sanctioned(
                        trace, states, i, dt, tar, entry.t):
                    c3_seen.add((dt, tar))
                    found["C3"].append(Violation(
                        "C3", dt, f"{tar!r} holds the datum without ownership"
                        " or a sanctioning action", i))
            if (dt not in c4_seen and SP in entry.h_has
                    and not entry.policy.storage.sp_readable()):
                c4_seen.add(dt)
                found["C4"].append(Violation(
                    "C4", dt, "service provider holds the datum but the policy"
                    " grants no readable storage at the provider", i))
        if e.kind == DELETEREQ:
            deadline = e.t + pol.dm.delay("man")
            if not any(d.kind == DELETE and d.dt == e.dt and e.t < d.t <= deadline
                       for d in trace):
                found["C5"].append(Violation(
                    "C5", e.dt, f"no deletion in ({e.t}, {deadline}] after the"
                    f" request at t={e.t}", i))
    return ComplianceReport([v for rule in RULES for v in found[rule]], warnings)


def assert_same_audit(trace, sets):
    """check_trace agrees with the reference, on the report or on the error."""
    try:
        expected = reference_audit(trace, sets)
    except SemanticsError as err:
        with pytest.raises(SemanticsError) as got:
            check_trace(trace, sets)
        assert (str(got.value), got.value.index) == (str(err), err.index)
        return None
    report = check_trace(trace, sets)
    assert report == expected, f"{report.render()}\n---\n{expected.render()}"
    return report


def test_oracle_generated_clean_and_injected():
    for seed in range(100):
        rng = random.Random(seed)
        model = random_model(rng)
        trace = compliant_trace(model, rng, max_len=40)
        assert_same_audit(trace, model.sets)
        for inject in INJECTORS.values():
            mutated = inject(model, list(trace), rng)
            if mutated is not None:
                assert_same_audit(mutated, model.sets)


def test_oracle_fixture_traces():
    fix = Path(__file__).resolve().parent.parent / "fixtures" / "facebook"
    model = parse_policy((fix / "facebook.dcp").read_text())
    audited = 0
    for path in sorted(fix.glob("*.dct")):
        text = path.read_text()
        if sniff_kind(text) == "trace":
            assert_same_audit(parse_trace(text, model), model.sets)
            audited += 1
    assert audited >= 4


def _ev(kind, t, dt=DT, **kw):
    if kind == OWN:
        kw = {"actor": dt.ow, "value": "v", "policy": POL, **kw}
    return AbstractEvent(kind=kind, t=t, dt=dt, **kw)


def test_oracle_reowned_datum_carries_flags_and_requester():
    trace = [
        _ev(OWN, 1),
        _ev(GROUPHAS, 2, actor="alice", tar="eve"),
        _ev(GROUPHAS, 3, actor="alice", tar=SP),
        _ev(DELETEREQ, 4, actor="bob"),
        _ev(DELETE, 5),
        _ev(OWN, 6),
        _ev(GROUPHAS, 7, actor="alice", tar="eve"),  # eve already reported
        _ev(GROUPHAS, 8, actor="alice", tar=SP),  # so is the provider's storage
        _ev(DELETE, 9),  # still attributed to bob's request
    ]
    report = assert_same_audit(trace, SETS)
    assert [(v.rule, v.event_index) for v in report.violations] == [
        ("C2", 5), ("C2", 9), ("C3", 2), ("C4", 3)]


def test_oracle_two_requests_before_one_delete():
    trace = [
        _ev(OWN, 1),
        _ev(DELETEREQ, 2, actor="alice"),
        _ev(DELETEREQ, 3, actor="bob"),
        _ev(DELETE, 4),
    ]
    report = assert_same_audit(trace, SETS)
    assert [(v.rule, v.event_index) for v in report.violations] == [("C2", 4)]
    assert "'bob'" in report.violations[0].detail


def test_oracle_guard_failed_act_sanctions_nobody():
    pol = Policy(ap=POL.ap, dm=POL.dm, storage=POL.storage,
                 perms=Perms(POL.perms.can, by={"fav": {"bob": frozenset({"carol"}),
                                                        "mallory": frozenset({"carol"})}}))
    trace = [
        _ev(OWN, 1, policy=pol),
        _ev(ACT1, 2, actor="mallory", action="fav"),  # guard fails: a no-op
        _ev(GROUPHAS, 3, actor="alice", tar="carol"),
    ]
    report = assert_same_audit(trace, SETS)
    assert [(v.rule, v.event_index) for v in report.violations] == [("C2", 2), ("C3", 3)]


def test_oracle_non_monotone_times():
    """Sanctions and deletes are matched by time, not by trace position."""
    trace = [
        _ev(OWN, 1),
        _ev(DELETE, 5),
        _ev(OWN, 2),
        _ev(DELETEREQ, 3, actor="alice"),  # deadline 6: honoured by the delete at t=5
        _ev(ACT1, 4, actor="bob", action="fav"),  # sanctions carol from t=4
        _ev(ACT1, 9, actor="bob", action="fav"),
        _ev(GROUPHAS, 5, actor="alice", tar="dave"),
        _ev(GROUPHAS, 1, actor="alice", tar="eve"),  # entry time drops below t=4
        _ev(DELETEREQ, 7, actor="alice"),  # the only delete is earlier in time
    ]
    report = assert_same_audit(trace, SETS)
    assert [(v.rule, v.event_index, v.detail.split()[0]) for v in report.violations] == [
        ("C3", 7, "'dave'"), ("C3", 8, "'carol'"), ("C3", 8, "'eve'"), ("C5", 9, "no")]
    assert len(report.warnings) == 1


def test_oracle_deletes_out_of_time_order():
    trace = [
        _ev(OWN, 1),
        _ev(DELETE, 20),
        _ev(OWN, 2),
        _ev(DELETEREQ, 3, actor="alice"),  # deadline 6: honoured by the later delete at t=4
        _ev(DELETE, 4),
    ]
    report = assert_same_audit(trace, SETS)
    assert report.compliant and len(report.warnings) == 1


@pytest.mark.parametrize("trace", [
    [_ev(STORE, 1)],
    [_ev(OWN, 1), _ev(USE, 2, purposes=frozenset({"ads"})), _ev(OWN, 3)],
    [_ev(OWN, 1), _ev(GROUPHAS, 2, actor="alice", tar="eve"), _ev(DELETE, 3), _ev(USE, 4)],
    [_ev(OWN, 1, policy=Policy(ap=POL.ap, dm=DeletionSpec(()), storage=POL.storage,
                               perms=POL.perms)), _ev(DELETEREQ, 2, actor="alice")],
    [_ev(OWN, 1), _ev("frobnicate", 2)],
], ids=["undefined", "duplicate-own", "after-delete", "no-manual-deletion", "unknown-kind"])
def test_oracle_non_executing_traces(trace):
    with pytest.raises(SemanticsError):
        reference_audit(trace, SETS)
    assert_same_audit(trace, SETS)


def test_single_pass_over_an_iterator():
    for seed in range(20):
        rng = random.Random(seed)
        model = random_model(rng)
        trace = INJECTORS["C5"](model, compliant_trace(model, rng, max_len=40), rng)
        full = check_trace(trace, model.sets)
        assert check_trace(iter(trace), model.sets) == full
        assert check_trace((e for e in trace), model.sets) == full
        for rule in RULES:
            assert check_rule(rule, iter(trace), model.sets) == [
                v for v in full.violations if v.rule == rule]


# --- single-rule audits against the full audit --------------------------------


def _outcome(audit, *args):
    try:
        return audit(*args)
    except SemanticsError as err:
        return str(err), err.index


def _broken_copies(model, trace, rng):
    """Traces that do not all execute: three shuffles of the compliant trace's
    events after its ``own`` prefix, mixed with one group event per group
    template and datum between the owner and a random user, so that policies
    change and events follow the deletion of their datum; the trace with
    policies that allow no manual deletion, so that a request is rejected; and
    the trace followed by its ``own`` events again."""
    owns = [e for e in trace if e.kind == OWN]
    users = sorted(model.users())
    t = trace[-1].t
    rest = trace[len(owns):] + [
        AbstractEvent(g.kind, t + k, e.dt, e.dt.ow, rng.choice(users), g.action)
        for k, (e, g) in enumerate(
            ((e, g) for e in owns for g in possible_events(model.sets) if g.kind in GROUP_KINDS),
            start=1)
    ]
    copies = []
    for _ in range(3):
        rng.shuffle(rest)
        copies.append(owns + rest)
    no_manual = DeletionSpec(())
    copies.append([e._replace(policy=e.policy._replace(dm=no_manual)) if e.kind == OWN else e
                   for e in trace])
    copies.append(trace + owns)
    return copies


def test_single_rule_audits_equal_the_full_audit():
    """``check_rule`` judges one rule and steps only what it reads; on every
    trace, executing or not, it gives that rule's part of ``check_trace`` or
    the same error at the same event."""
    audits = raised = 0
    for seed in range(300):
        rng = random.Random(seed)
        model = random_model(rng)
        trace = compliant_trace(model, rng)
        traces = [trace, full_events(model)]
        traces += [bad for bad in (inject(model, list(trace), rng) for inject in INJECTORS.values())
                   if bad is not None]
        traces += _broken_copies(model, trace, rng)
        for events in traces:
            full = _outcome(check_trace, events, model.sets)
            for rule in RULES:
                expected = full if isinstance(full, tuple) else [
                    v for v in full.violations if v.rule == rule]
                assert _outcome(check_rule, rule, events, model.sets) == expected, (seed, rule)
            audits += len(RULES)
            raised += len(RULES) * isinstance(full, tuple)
    # both outcomes are common, so neither half of the comparison is idle
    assert min(raised, audits - raised) > 4000
