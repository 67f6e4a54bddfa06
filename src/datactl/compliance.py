"""Trace audit against the five compliance rules C1-C5.

Violations are collected exhaustively; a trace is compliant iff the list is
empty.  The audit is one left fold over the events, in the manner of an
online monitor for temporal properties (Basin, Klaedtke, Mueller & Zalinescu,
J. ACM 62(2), 2015): it keeps each datum's current entry plus a little state
per datum for the rules, and after each event it judges only the datum that
event touched.  That suffices because a step changes no other datum (the frame
property) and sanctions only accumulate, so any finding about another datum
was already made when that datum last changed.  Time is linear in the number
of events; memory grows with the number of data, not with the trace length.

An audit judges only the rules it is asked for, and each rule reads only part
of an entry (cone-of-influence reduction: Clarke, Grumberg & Peled, *Model
Checking*, MIT Press, 1999):

- C1 reads the policy's purposes at each ``use``;
- C2 reads the policy's ``can`` groups at each action and ``delete``, and the
  performer of the datum's latest ``deletereq``;
- C3 reads the holders ``h_has`` and the time ``t`` after each step, and the
  holders that each permitted ``act1``/``act2`` adds under the policy;
- C4 reads ``h_has`` and the policy's storage after each step;
- C5 reads the policy's manual deletion delay at each ``deletereq``, and the
  times of the datum's deletes.

Besides, every rule needs the steps that define or undefine a datum or change
its policy, and those that raise.  So an audit that judges neither C3 nor C4
does not step the events that change only ``t`` and ``h_has``, and keeps no
state for a rule it does not judge.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable

from .model import SP, ActivitySets, DataRef, MutableRecord, record
from .semantics import (
    ACT1,
    ACT2,
    ACT_KINDS,
    DELETE,
    DELETEREQ,
    STORE,
    USE,
    AbstractEvent,
    StateEntry,
    step,
)

RULES = ("C1", "C2", "C3", "C4", "C5")

# The kinds whose step on a defined entry changes only its time and holders
# (``t`` and ``h_has``) and never raises.  Only C3 and C4 read those two
# fields, so an audit that judges neither leaves the entry as it is on these
# kinds.  Every other event still steps: ``own`` and ``delete`` define and
# undefine the datum, ``deletereq`` checks the policy's manual deletion, the
# group kinds edit the policy, and an unknown kind or any event on an
# undefined datum raises.  What is skipped is therefore what no judged rule
# reads, and every SemanticsError keeps its text and index.
_HOLDER_KINDS = frozenset({USE, STORE, *ACT_KINDS})

# The kinds of event each rule judges against the entry before the event; C3
# reads the acts whose guard passed, and C4 reads only the entry after.
_JUDGED_KINDS = {
    "C1": {USE},
    "C2": {DELETEREQ, DELETE, *ACT_KINDS},
    "C3": {ACT1, ACT2},
    "C4": set(),
    "C5": {DELETEREQ, DELETE},
}


@record
class Violation:
    rule: str
    datum: DataRef
    detail: str
    # 1-based; for C3/C4, the event after which the state first breaks the rule
    event_index: int

    def render(self) -> str:
        return f"{self.rule}\t{self.event_index}\t{self.datum.ident}\t{self.detail}"


class ComplianceReport(MutableRecord):
    def __init__(self, violations: list[Violation] | None = None,
                 warnings: list[str] | None = None):
        self.violations = [] if violations is None else violations
        self.warnings = [] if warnings is None else warnings

    @property
    def compliant(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [v.render() for v in self.violations]
        lines += [f"warning\t-\t-\t{w}" for w in self.warnings]
        verdict = "compliant" if self.compliant else f"non-compliant ({len(self.violations)} violations)"
        lines.append(verdict)
        return "\n".join(lines)


def _audit(
    events: Iterable[AbstractEvent], sets: ActivitySets, rules: Iterable[str]
) -> tuple[dict[str, list[Violation]], list[str]]:
    """The audit fold, judging only ``rules``: each one's violations in event
    order, and C2's warnings when C2 is judged.

    Raises the transition function's :class:`SemanticsError` unchanged.
    """
    found: dict[str, list[Violation]] = {rule: [] for rule in rules}
    c1, c2, c3, c4, c5 = (found.get(rule) for rule in RULES)
    warnings: list[str] = []
    entries: dict[DataRef, StateEntry | None] = {}
    last_request: dict[DataRef, str | None] = {}  # C2: performer of the latest deletereq
    sanctioned_at: dict[tuple[DataRef, str], int] = {}  # C3: least t of a sanctioning act
    flagged: set[tuple[DataRef, str]] = set()  # C3: holders already reported
    sp_flagged: set[DataRef] = set()  # C4: data already reported
    requests: list[tuple[int, AbstractEvent, int]] = []  # C5: (index, request, deadline)
    deleted_at: dict[DataRef, list[int]] = {}  # C5: delete times per datum
    unstepped = _HOLDER_KINDS if c3 is None and c4 is None else ()
    judged = frozenset().union(*(_JUDGED_KINDS[rule] for rule in found))

    for i, e in enumerate(events, start=1):
        dt, kind = e.dt, e.kind
        before = after = entries.get(dt)
        if before is None or kind not in unstepped:
            after = entries[dt] = step(before, e, i, sets)
        if before is not None and kind in judged:
            pol = before.policy
            if kind == USE:  # judged only for C1
                for purpose in sorted((e.purposes or frozenset()) - pol.ap):
                    c1.append(Violation("C1", dt, f"purpose {purpose!r} not authorized", i))
            elif kind == DELETEREQ:
                if c2 is not None:
                    last_request[dt] = e.actor
                if c5 is not None:
                    # the step has rejected requests that no manual deletion delay allows
                    requests.append((i, e, e.t + pol.dm.delay("man")))
            elif kind == DELETE:
                if c5 is not None:
                    deleted_at.setdefault(dt, []).append(e.t)
                if c2 is not None:
                    # A delete event carries no performer; attribute it to the most
                    # recent deletion request for the same datum when one exists.
                    actor = last_request.get(dt)
                    if actor is None:
                        warnings.append(
                            f"C2 skipped for delete at event {i}: no preceding deletereq names a performer"
                        )
                    elif actor not in pol.perms.can_do("delete"):
                        c2.append(Violation("C2", dt, f"{actor!r} not permitted to perform 'delete'", i))
            elif kind in ACT_KINDS:
                if e.actor not in pol.perms.can_do(e.action):
                    if c2 is not None:
                        c2.append(Violation(
                            "C2", dt, f"{e.actor!r} not permitted to perform {e.action!r}", i
                        ))
                elif c3 is not None and kind in (ACT1, ACT2):
                    # The guard passed: the act sanctions whoever it adds to the holders.
                    gained = pol.perms.holders(e.action, e.actor, e.tar if kind == ACT2 else None)
                    for user in gained:
                        key = (dt, user)
                        sanctioned_at[key] = min(e.t, sanctioned_at.get(key, e.t))
        if after is None or after is before:
            continue  # deleted, or unchanged and so already judged

        # C3: every holder is the owner or entered through a declared action no
        # later than the entry's time.  The provider's possession is C4's.
        if c3 is not None:
            for tar in sorted(after.h_has - {SP, dt.ow}):
                since = sanctioned_at.get((dt, tar))
                if (since is None or since > after.t) and (dt, tar) not in flagged:
                    flagged.add((dt, tar))
                    c3.append(Violation(
                        "C3", dt, f"{tar!r} holds the datum without ownership or a sanctioning action", i
                    ))
        if (c4 is not None and SP in after.h_has and dt not in sp_flagged
                and not after.policy.storage.sp_readable()):
            sp_flagged.add(dt)
            c4.append(Violation(
                "C4", dt, "service provider holds the datum but the policy grants no"
                " readable storage at the provider", i
            ))

    if c5 is not None:
        # C5 after the fold, over every delete in the trace, so that the verdict
        # does not depend on event times growing with trace position.
        for times in deleted_at.values():
            times.sort()
        for i, e, deadline in requests:
            times = deleted_at.get(e.dt, [])
            k = bisect_right(times, e.t)  # the first delete strictly after the request
            if k == len(times) or times[k] > deadline:
                c5.append(Violation(
                    "C5", e.dt, f"no deletion in ({e.t}, {deadline}] after the request at t={e.t}", i
                ))
    return found, warnings


def check_rule(
    rule: str, trace: Iterable[AbstractEvent], sets: ActivitySets
) -> list[Violation]:
    """Evaluate a single rule; raises on an unknown rule id or a broken trace."""
    if rule not in RULES:
        raise ValueError(f"unknown compliance rule {rule!r}")
    return _audit(trace, sets, (rule,))[0][rule]


def check_trace(
    trace: Iterable[AbstractEvent], sets: ActivitySets
) -> ComplianceReport:
    """Full audit in one pass over ``trace``: all five rules, violations
    ordered by rule then position.  A trace that does not execute raises the
    :class:`SemanticsError` of its first rejected event."""
    found, warnings = _audit(trace, sets, RULES)
    return ComplianceReport([v for rule in RULES for v in found[rule]], warnings)
