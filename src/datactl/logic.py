"""Possession properties over architectures: the deduction rules and the
bounded semantic oracle.

Two ways to establish a property are provided.  ``deduce`` applies the
syntactic rules H1-H10 to an architecture and an event trace.  ``eval_semantic``
decides the property against the enumerated state space, which is exact up to
the trace-length bound; verdicts whose truth depends on states beyond the
bound are flagged as bounded.  ``judge`` gives that verdict over states read
until it is settled, from each form's decision about one state (``witness``).
"""

from __future__ import annotations

from typing import Iterable, Union

from .architecture import (
    Act1,
    Act2,
    AddFriends,
    Architecture,
    ArchEvent,
    Delete,
    Func,
    GlobalState,
    GroupAct,
    KeyVar,
    Own,
    Possess,
    PossessOneOf,
    StateView,
    Term,
    Universe,
    Var,
    is_compatible,
    is_pattern,
    match_term,
    match_token,
    schema_of,
    search_states,
)
from .model import SP, record

# ---------------------------------------------------------------------------
# Properties


class _Form:
    """What the four possession forms share.  Each declares its ``.dcq``
    ``head`` and its rendered ``label``, and ``witness`` decides of one state
    whether it is the state the search looks for: one proves an existential
    form and refutes the ``universal`` one, ``HAS_never``."""

    __slots__ = ()
    universal = False

    def render(self) -> str:
        t = f", {self.t}" if "t" in SLOTS[type(self)] else ""
        return f"{self.label}_{self.user}({self.var.ident}{t})"


@record
class HasSp(_Form):
    var: Var
    head, label, user = "HAS_sp", "HAS", SP

    def witness(self, state: GlobalState | StateView) -> bool:
        """The provider reads the value in the clear, or holds the ciphertext
        under its own key and that key."""
        sp, key = state.user(SP), KeyVar(SP)
        if sp.value(self.var) is not None:
            return True
        return sp.value(Func("enc", (self.var, key))) is not None and sp.value(key) is not None


@record
class Has(_Form):
    user: str
    var: Var
    t: int
    head, label = "HAS", "HAS"

    def witness(self, state: GlobalState | StateView) -> bool:
        st = state.user(self.user)
        return st.t == self.t and st.value(self.var) is not None


@record
class HasNot(_Form):
    user: str
    var: Var
    t: int
    head, label = "HAS_not", "HASnot"

    def witness(self, state: GlobalState | StateView) -> bool:
        st = state.user(self.user)
        return st.t == self.t and st.value(self.var) is None


@record
class HasNever(_Form):
    user: str
    var: Var
    head, label, universal = "HAS_never", "HASnever", True

    def witness(self, state: GlobalState | StateView) -> bool:
        return state.user(self.user).value(self.var) is not None


# Each form by its ``.dcq`` head, and the fields it carries: the parser, the
# printer and ``render`` read the optional ``user`` and ``t`` slots from them.
FORMS = {cls.head: cls for cls in (HasSp, Has, HasNot, HasNever)}
SLOTS = {cls: frozenset(cls._fields) for cls in FORMS.values()}


@record
class And:
    parts: tuple[_Form, ...]

    def render(self) -> str:
        return " and ".join(p.render() for p in self.parts)


HasProperty = Union[HasSp, Has, HasNot, HasNever, And]


# ---------------------------------------------------------------------------
# Deduction

@record
class DeductionResult:
    rule: str
    conclusion: HasProperty
    because: str

    def render(self) -> str:
        return f"{self.rule}\t{self.conclusion.render()}\t{self.because}"


def _activity_vars(pa: Architecture) -> list[Var]:
    """All distinct data variables the architecture mentions."""
    out: dict[Var, None] = {}

    def visit(term: Term) -> None:
        if isinstance(term, Var):
            out.setdefault(term)
        elif isinstance(term, Func):
            for arg in term.args:
                visit(arg)

    for act in pa.activities:
        for term in schema_of(act).terms(act):
            visit(term)
    return list(out)


def h8_conclusions(pa: Architecture) -> list[DeductionResult]:
    """H8: the provider reads each variable it possesses in the clear, or
    under its own key when it also possesses that key."""
    out = []
    possessed = {term for act in pa.of_type((Possess, PossessOneOf))
                 for term in schema_of(act).terms(act)}
    sp_key = KeyVar(SP)
    for term in sorted(possessed, key=repr):
        if isinstance(term, Var):
            out.append(
                DeductionResult(
                    "H8", HasSp(term), "the provider possesses the variable in the clear"
                )
            )
        elif (
            isinstance(term, Func)
            and term.name == "enc"
            and len(term.args) == 2
            and isinstance(term.args[0], Var)
            and term.args[1] == sp_key
            and sp_key in possessed
        ):
            out.append(
                DeductionResult(
                    "H8",
                    HasSp(term.args[0]),
                    "the provider possesses the ciphertext and its own key",
                )
            )
    return out


def h1_applicable(pa: Architecture, j: str, var: Var) -> bool:
    """H1's premise: some Own activity lets ``j`` input ``var``."""
    return any(
        match_token(act.user, j) and match_term(act.term, var) for act in pa.of_type(Own)
    )


def _may_perform(pa: Architecture, i: str, action: str) -> bool:
    """Whether some run can reach a state in which ``i`` may perform ``action``:
    either the table grants it now, or a grant activity can add ``i`` later."""
    if i in pa.perms.can_do(action):
        return True
    for act in pa.activities:
        if isinstance(act, GroupAct) and act.action == action and match_token(act.tar, i):
            return True
        if isinstance(act, AddFriends) and action in act.actions and match_token(act.tar, i):
            return True
    return False


def _grant_applicable(pa: Architecture, cls: type, j: str, var: Var, users: Iterable[str]) -> bool:
    """Whether some ``cls`` action (``Act1`` or ``Act2``) on ``var``, performed
    by a user who may perform it, can grant ``j`` the value; pattern
    principals range over ``users``."""
    for act in pa.of_type(cls):
        if not match_term(act.term, var):
            continue
        performers = users if is_pattern(act.user) else [act.user]
        if cls is Act1:
            targets = [None]
        else:
            targets = users if is_pattern(act.tar) else [act.tar]
        for i in performers:
            if not _may_perform(pa, i, act.action):
                continue
            for tar in targets:
                if j in pa.perms.holders(act.action, i, tar):
                    return True
    return False


def h2_applicable(pa: Architecture, j: str, var: Var, users: Iterable[str]) -> bool:
    """H2's premise: some unary action on ``var`` can grant ``j`` the value."""
    return _grant_applicable(pa, Act1, j, var, users)


def h3_applicable(pa: Architecture, j: str, var: Var, users: Iterable[str]) -> bool:
    """H3's premise: some binary action on ``var`` can grant ``j`` the value."""
    return _grant_applicable(pa, Act2, j, var, users)


# The rule each valued event kind triggers: the owner's input (H1), grants
# (H2, H3) and withdrawals (H5, H6), the latter reading the holder tables of
# the action that the architecture's declared pairs take back.
_EVENT_RULES = {"own": "H1", "act1": "H2", "act2": "H3", "unact1": "H5", "unact2": "H6"}


def deduce(
    pa: Architecture,
    trace: list[ArchEvent],
    users: Iterable[str],
) -> list[DeductionResult]:
    """Apply the deduction rules to an architecture and an event trace.

    Group events bind no data variable, so the two rules premised on a valued
    group event (H4, H7) can never fire, and neither is implemented.
    """
    users = sorted(set(users) | {SP})
    results: list[DeductionResult] = []

    for e in trace:
        # The event must bind a variable and instantiate an activity.
        rule = _EVENT_RULES.get(e.kind)
        if rule is None or not isinstance(e.term, Var) or not is_compatible([e], pa)[0]:
            continue
        if rule == "H1":
            results.append(DeductionResult("H1", Has(e.user, e.term, e.t),
                                           f"owner {e.user!r} input the value at t={e.t}"))
            continue
        if e.user not in pa.perms.can_do(e.action):
            continue
        revokes = rule in ("H5", "H6")
        action = pa.sets.base_of(e.action) if revokes else e.action
        tar = e.tar if rule in ("H3", "H6") else None
        holders = pa.perms.holders(action, e.user, tar)
        how = f"{e.action!r} by {e.user!r}" + ("" if tar is None else f" on {tar!r}")
        for j in sorted(holders):
            if revokes:
                conclusion, why = HasNot(j, e.term, e.t), f"{how} withdraws the value from {j!r}"
            else:
                conclusion, why = Has(j, e.term, e.t), f"{how} grants {j!r} the value"
            results.append(DeductionResult(rule, conclusion, why))

    results.extend(h8_conclusions(pa))

    # H10: a sanctioned deletion within its delay clears every user's copy.
    for act in pa.of_type(Delete):
        for req in trace:
            if req.kind != "deletereq" or not isinstance(req.term, Var):
                continue
            if not match_term(act.term, req.term):
                continue
            within = range(req.t, req.t + act.dd + 1)  # the delete times it sanctions
            why = f"deletion honoured within {act.dd} of the request at t={req.t}"
            for dele in trace:
                if dele.kind == "delete" and dele.term == req.term and dele.t in within:
                    results += [DeductionResult("H10", HasNot(j, req.term, dele.t), why)
                                for j in users]

    # H9: no grant path at all for (user, variable) pairs.
    h8_vars = {r.conclusion.var for r in results if r.rule == "H8"}
    for var in _activity_vars(pa):
        if not isinstance(var, Var) or is_pattern(var.ow):
            continue
        for j in users:
            if (h1_applicable(pa, j, var) or h2_applicable(pa, j, var, users)
                    or h3_applicable(pa, j, var, users) or (j == SP and var in h8_vars)):
                continue
            results.append(
                DeductionResult(
                    "H9",
                    HasNever(j, var),
                    f"no activity or permission ever grants {j!r} the value",
                )
            )
    return results


def conclusions(results: Iterable[DeductionResult]) -> frozenset[HasProperty]:
    return frozenset(r.conclusion for r in results)


# ---------------------------------------------------------------------------
# Bounded semantic evaluation


@record
class SemanticVerdict:
    holds: bool
    bounded: bool  # True when a longer trace could still change the answer
    detail: str = ""

    def render(self) -> str:
        qualifier = " (within bound)" if self.bounded else ""
        return f"{'holds' if self.holds else 'does not hold'}{qualifier}"


def _fully_concrete(var: Var) -> bool:
    if is_pattern(var.ow) or is_pattern(var.ident):
        return False
    return not isinstance(var.ds, str)


# The verdict on a form by (universal, whether a witness state was found).  A
# witness decides exactly; its absence decides only within the bound.
_VERDICTS = {
    (False, True): SemanticVerdict(True, False, "witness state found"),
    (False, False): SemanticVerdict(False, True, "no witness within bound"),
    (True, True): SemanticVerdict(False, False, "a reachable state defines the variable"),
    (True, False): SemanticVerdict(True, True, "holds of every state within bound"),
}


def eval_semantic(
    pa: Architecture,
    prop: HasProperty,
    universe: Universe,
    max_len: int = 4,
    max_states: int = 10**6,
) -> SemanticVerdict:
    """Decide a property over the states reachable within ``max_len`` events,
    searched only until :func:`judge` has settled the verdict.

    Positive existential answers (a witness state was found) are exact.
    Negative existentials and all universal answers are bounded: they hold of
    every enumerated state but a longer trace might differ.
    """
    kernel, reached = search_states(pa, max_len, universe, max_states)
    return judge(prop, (StateView(kernel, s) for s in reached))


def judge(prop: HasProperty, states: Iterable[GlobalState | StateView]) -> SemanticVerdict:
    """The verdict on ``prop`` over ``states``, read in order only until each
    part is settled: by a witness state, or at once for a variable that is not
    completely defined.  The parts of a conjunction read the same states."""
    forms = prop.parts if isinstance(prop, And) else (prop,)
    unsettled = [p for p in forms if _fully_concrete(p.var)]
    for state in states if unsettled else ():
        unsettled = [p for p in unsettled if not p.witness(state)]
        if not unsettled:
            break
    verdicts = [_VERDICTS[p.universal, p not in unsettled] if _fully_concrete(p.var)
                else SemanticVerdict(False, False, "variable is not completely defined")
                for p in forms]
    # A conjunction that holds is bounded if any part is; one that fails is
    # bounded only if every failing part is, for one refuted part refutes it.
    failing = [v for v in verdicts if not v.holds]
    return SemanticVerdict(
        holds=not failing,
        bounded=all(v.bounded for v in failing) if failing else any(v.bounded for v in verdicts),
        detail="; ".join(v.detail for v in verdicts if v.detail),
    )
