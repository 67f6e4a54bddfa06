"""Concrete syntax for the five document kinds: policy models (.dcp), event
traces and architecture traces (.dct), architectures (.dca), and possession
queries (.dcq).

The grammar is line-oriented and block-structured; ``#`` starts a comment.
Serialization is canonical (sorted set elements, one declaration per line),
and parse∘serialize is the identity on every valid document.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from .architecture import (
    ACTIVITIES,
    Activity,
    Architecture,
    ArchEvent,
    Func,
    KeyVar,
    Term,
    Var,
    is_consistent,
)
from .logic import And, Has, HasNever, HasNot, HasProperty, HasSp
from .model import (
    BINARY,
    BINARY_REVOKE,
    SP,
    UNARY,
    UNARY_REVOKE,
    ActionId,
    ActivitySets,
    DataRef,
    DeletionSpec,
    FriendAlias,
    Perms,
    Policy,
    PolicyModel,
    StorageSpec,
    validate_model,
)
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

T = TypeVar("T")

_PUNCT = set("{}()[]=,;:/+")
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_?")
_IDENT_BODY = _IDENT_START | set("0123456789-")


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan, expected: frozenset[str] = frozenset()):
        self.span = span
        self.expected = expected
        hint = ""
        if expected:
            hint = f" (expected {', '.join(sorted(expected))})"
        super().__init__(f"{span}: {message}{hint}")


@dataclass(frozen=True)
class Token:
    kind: str  # ident / number / string / punct / eof
    text: str
    span: SourceSpan


def tokenize(text: str, file: str = "<input>") -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        span = SourceSpan(file, line, col)
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, span))
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise ParseError("unterminated string", span)
                j += 1
            if j >= n:
                raise ParseError("unterminated string", span)
            tokens.append(Token("string", text[i + 1 : j], span))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("number", text[i:j], span))
            col += j - i
            i = j
            continue
        if ch in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_BODY:
                j += 1
            tokens.append(Token("ident", text[i:j], span))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", span)
    tokens.append(Token("eof", "", SourceSpan(file, line, col)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.current
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.current.text == text and self.current.kind in ("punct", "ident")

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.at(text):
            self.fail(f"found {self.describe()}", {text})
        return self.advance()

    def describe(self) -> str:
        tok = self.current
        return "end of input" if tok.kind == "eof" else repr(tok.text)

    def fail(self, message: str, expected: Iterable[str] = ()) -> None:
        raise ParseError(message, self.current.span, frozenset(expected))

    def ident(self, what: str = "identifier") -> str:
        if self.current.kind != "ident":
            self.fail(f"found {self.describe()}", {what})
        return self.advance().text

    def number(self) -> int:
        if self.current.kind != "number":
            self.fail(f"found {self.describe()}", {"number"})
        return int(self.advance().text)

    def string(self) -> str:
        if self.current.kind != "string":
            self.fail(f"found {self.describe()}", {"string"})
        return self.advance().text

    def name_set(self) -> frozenset[str]:
        """`{ a, b, c }` (possibly empty)."""
        self.expect("{")
        items: set[str] = set()
        while not self.at("}"):
            items.add(self.ident("set element"))
            if not self.accept(","):
                break
        self.expect("}")
        return frozenset(items)

    def eof(self) -> None:
        if self.current.kind != "eof":
            self.fail(f"trailing input {self.describe()}", {"end of input"})


# ---------------------------------------------------------------------------
# Policy documents


def parse_policy(text: str, file: str = "<input>") -> PolicyModel:
    p = _Parser(tokenize(text, file))
    if p.current.kind == "eof":
        p.fail("empty document", {"actions"})
    p.expect("actions")
    p.expect("{")
    a1, ua1, a2, ua2 = [], [], [], []
    while not p.at("}"):
        family = p.ident("unary or binary")
        if family not in ("unary", "binary"):
            raise ParseError(
                f"unknown action family {family!r}", p.tokens[p.pos - 1].span,
                frozenset({"unary", "binary"}),
            )
        base = p.ident("action name")
        p.expect("/")
        rev = p.ident("revoke action name")
        p.expect(";")
        if family == "unary":
            a1.append(ActionId(base, UNARY))
            ua1.append(ActionId(rev, UNARY_REVOKE, revokes=base))
        else:
            a2.append(ActionId(base, BINARY))
            ua2.append(ActionId(rev, BINARY_REVOKE, revokes=base))
    p.expect("}")
    sets = ActivitySets(a1=tuple(a1), ua1=tuple(ua1), a2=tuple(a2), ua2=tuple(ua2))

    alias = None
    if p.at("alias"):
        p.advance()
        add_name = p.ident("alias name")
        p.expect("/")
        remove_name = p.ident("alias name")
        p.expect("=")
        p.expect("groupact")
        p.expect("(")
        actions = []
        while not p.at(")"):
            actions.append(p.ident("action name"))
            if not p.accept(","):
                break
        p.expect(")")
        p.expect("+")
        p.expect("grouphas")
        p.expect(";")
        alias = FriendAlias(add_name, remove_name, tuple(actions))

    model = PolicyModel(sets=sets, alias=alias)
    while p.at("data"):
        p.advance()
        ident = p.ident("datum id")
        span = p.tokens[p.pos - 1].span
        p.expect("{")
        ow = ds = dtype = None
        pol = None
        while not p.at("}"):
            key = p.ident("datum field")
            if key == "ow":
                p.expect("=")
                ow = p.ident("owner")
                p.expect(";")
            elif key == "ds":
                p.expect("=")
                ds = p.name_set()
                p.expect(";")
            elif key == "type":
                p.expect("=")
                dtype = p.ident("type name")
                p.expect(";")
            elif key == "policy":
                pol = _parse_policy_block(p)
            else:
                raise ParseError(
                    f"unknown datum field {key!r}", p.tokens[p.pos - 1].span,
                    frozenset({"ow", "ds", "type", "policy"}),
                )
        p.expect("}")
        if ow is None or ds is None or dtype is None or pol is None:
            raise ParseError(f"datum {ident!r} is missing ow/ds/type/policy", span)
        if ident in model.data:
            raise ParseError(f"duplicate datum {ident!r}", span)
        model.data[ident] = DataRef(ow=ow, ds=ds, dtype=dtype, ident=ident)
        model.policies[ident] = pol
    p.eof()

    errors = validate_model(model)
    if errors:
        raise ParseError("; ".join(errors), SourceSpan(file, 1, 1))
    return model


def _parse_policy_block(p: _Parser) -> Policy:
    p.expect("{")
    ap: frozenset[str] = frozenset()
    dm = DeletionSpec()
    wh: frozenset[str] = frozenset()
    ho: frozenset[tuple[str, str]] = frozenset()
    tables: dict = {"can": {}, "by": {}, "been": {}, "group": frozenset()}  # Perms fields
    while not p.at("}"):
        key = p.ident("policy field")
        if key == "purposes":
            p.expect("=")
            ap = p.name_set()
        elif key == "delete":
            p.expect("=")
            p.expect("{")
            modes = []
            while not p.at("}"):
                mode = p.ident("deletion mode")
                p.expect(":")
                modes.append((mode, p.number()))
                if not p.accept(","):
                    break
            p.expect("}")
            dm = DeletionSpec(tuple(sorted(modes)))
        elif key == "where":
            p.expect("=")
            wh = p.name_set()
        elif key == "how":
            p.expect("=")
            p.expect("{")
            forms = set()
            while not p.at("}"):
                form = p.ident("storage form")
                if form == "plain":
                    forms.add(("plain", "none"))
                elif form == "enc":
                    p.expect("(")
                    forms.add(("enc", p.ident("key kind")))
                    p.expect(")")
                else:
                    raise ParseError(
                        f"unknown storage form {form!r}", p.tokens[p.pos - 1].span,
                        frozenset({"plain", "enc"}),
                    )
                if not p.accept(","):
                    break
            p.expect("}")
            ho = frozenset(forms)
        elif key in ("can", "has"):
            _parse_perm_line(p, key, tables)
        else:
            raise ParseError(
                f"unknown policy field {key!r}", p.tokens[p.pos - 1].span,
                frozenset({"purposes", "delete", "where", "how", "can", "has"}),
            )
        p.expect(";")
    p.expect("}")
    return Policy(
        ap=ap,
        dm=dm,
        storage=StorageSpec(wh=wh, ho=ho),
        perms=Perms(**tables),
    )


def _parse_perm_line(p: _Parser, key: str, tables: dict) -> None:
    """The rest of a ``can ACT = {...}`` or ``has by|been ACT USER = {...}`` /
    ``has group = {...}`` line after its keyword ``key``, into ``tables``.
    Policy blocks and perms blocks share this reader."""
    if key == "can":
        action = p.ident("action name")
        p.expect("=")
        tables["can"][action] = p.name_set()
        return
    which = p.ident("by, been, or group")
    if which == "group":
        p.expect("=")
        tables["group"] = p.name_set()
    elif which in ("by", "been"):
        action = p.ident("action name")
        user = p.ident("user")
        p.expect("=")
        tables[which].setdefault(action, {})[user] = p.name_set()
    else:
        raise ParseError(
            f"unknown has table {which!r}", p.tokens[p.pos - 1].span,
            frozenset({"by", "been", "group"}),
        )


# ---------------------------------------------------------------------------
# Trace documents


_PREDEFINED_EVENT_NAMES = {OWN, STORE, USE, DELETEREQ, DELETE, GROUPHAS, UNGROUPHAS}


def _resolve_event_name(name: str, model: PolicyModel, span: SourceSpan) -> tuple[str, str | None]:
    """Surface event name -> (kind, action)."""
    if name in _PREDEFINED_EVENT_NAMES:
        return name, None
    for prefix, kind in (("ungroup", UNGROUPACT), ("group", GROUPACT)):
        if name.startswith(prefix):
            action = name[len(prefix):]
            act = model.sets.find(action)
            if act is not None and not act.is_revoke:
                return kind, action
    act = model.sets.find(name)
    if act is not None:
        if act.kind == UNARY:
            return ACT1, name
        if act.kind == UNARY_REVOKE:
            return UNACT1, name
        if act.kind == BINARY:
            return ACT2, name
        return UNACT2, name
    raise ParseError(f"unknown event {name!r}", span)


def parse_trace(text: str, model: PolicyModel, file: str = "<input>") -> list[AbstractEvent]:
    p = _Parser(tokenize(text, file))
    p.expect("trace")
    p.expect("{")
    events: list[AbstractEvent] = []
    last_t: int | None = None
    while not p.at("}"):
        span = p.current.span
        name = p.ident("event name")
        fields = _parse_event_fields(p)
        p.expect(";")
        t = fields.get("t")
        if t is None:
            raise ParseError(f"event {name!r} carries no timestamp", span)
        if last_t is not None and t <= last_t:
            raise ParseError(
                f"timestamps must be strictly increasing: {t} after {last_t}", span
            )
        last_t = t
        dt_ident = fields.get("dt")
        if dt_ident is None:
            raise ParseError(f"event {name!r} names no datum", span)
        if dt_ident not in model.data:
            raise ParseError(f"unknown datum {dt_ident!r}", span)
        dt = model.data[dt_ident]

        if model.alias is not None and name in (model.alias.add_name, model.alias.remove_name):
            events.extend(_expand_alias(model, name, t, fields, dt, span))
            continue

        kind, action = _resolve_event_name(name, model, span)
        events.append(_build_event(model, kind, action, t, fields, dt, span))
    p.expect("}")
    p.eof()
    return events


def _parse_event_fields(p: _Parser) -> dict:
    p.expect("(")
    fields: dict = {}
    while not p.at(")"):
        key = p.ident("event field")
        p.expect("=")
        if key == "t":
            fields["t"] = p.number()
        elif key in ("or", "tar", "dt"):
            fields[key] = p.ident("name")
        elif key == "purposes":
            fields["purposes"] = p.name_set()
        elif key == "value":
            fields["value"] = p.string()
        else:
            raise ParseError(
                f"unknown event field {key!r}", p.tokens[p.pos - 1].span,
                frozenset({"t", "or", "tar", "dt", "purposes", "value"}),
            )
        if not p.accept(","):
            break
    p.expect(")")
    return fields


def _build_event(
    model: PolicyModel, kind: str, action: str | None, t: int, fields: dict,
    dt: DataRef, span: SourceSpan,
) -> AbstractEvent:
    binary = kind in (GROUPACT, UNGROUPACT, GROUPHAS, UNGROUPHAS, ACT2, UNACT2)
    needs_actor = kind not in (STORE, USE, DELETE)
    actor = fields.get("or")
    tar = fields.get("tar")
    if needs_actor and actor is None:
        raise ParseError("event requires a performer (or=...)", span)
    if binary and tar is None:
        raise ParseError("binary event requires a target (tar=...)", span)
    if not binary and tar is not None:
        raise ParseError("unary event does not take a target", span)
    return AbstractEvent(
        kind=kind,
        t=t,
        dt=dt,
        actor=actor,
        tar=tar,
        action=action,
        purposes=fields.get("purposes") if kind == USE else None,
        value=fields.get("value") if kind == OWN else None,
        policy=model.policy_of(dt) if kind == OWN else None,
    )


def _expand_alias(
    model: PolicyModel, name: str, t: int, fields: dict, dt: DataRef, span: SourceSpan,
) -> list[AbstractEvent]:
    """One alias event becomes the per-action group events plus the has-group
    event, all sharing the surface timestamp."""
    alias = model.alias
    assert alias is not None
    actor, tar = fields.get("or"), fields.get("tar")
    if actor is None or tar is None:
        raise ParseError(f"{name!r} requires or=... and tar=...", span)
    adding = name == alias.add_name
    kind = GROUPACT if adding else UNGROUPACT
    has_kind = GROUPHAS if adding else UNGROUPHAS
    out = [
        AbstractEvent(kind=kind, t=t, dt=dt, actor=actor, tar=tar, action=action)
        for action in alias.actions
    ]
    out.append(AbstractEvent(kind=has_kind, t=t, dt=dt, actor=actor, tar=tar))
    return out


# ---------------------------------------------------------------------------
# Architecture documents


def _parse_term(p: _Parser) -> Term:
    head = p.ident("term")
    if head == "X":
        p.expect("{")
        ow = ds = ident = None
        while not p.at("}"):
            key = p.ident("variable field")
            p.expect("=")
            if key == "ow":
                ow = p.ident("owner")
            elif key == "ds":
                if p.current.kind == "ident" and p.current.text.startswith("?"):
                    ds = p.advance().text
                else:
                    ds = p.name_set()
            elif key == "id":
                ident = p.ident("identifier")
            else:
                raise ParseError(
                    f"unknown variable field {key!r}", p.tokens[p.pos - 1].span,
                    frozenset({"ow", "ds", "id"}),
                )
            if not p.accept(","):
                break
        p.expect("}")
        if ow is None or ds is None or ident is None:
            p.fail("variable requires ow, ds, and id")
        return Var(ow=ow, ds=ds, ident=ident)
    if head == "key":
        p.expect("[")
        owner = p.ident("key owner")
        p.expect("]")
        return KeyVar(owner)
    if head in ("enc", "hash", "sig"):
        p.expect("(")
        args = _parse_list(p, _parse_term)
        p.expect(")")
        return Func(head, tuple(args))
    p.fail(f"unknown term head {head!r}", {"X", "key", "enc", "hash", "sig"})
    raise AssertionError


def _parse_list(p: _Parser, item: Callable[[_Parser], T]) -> list[T]:
    """One or more comma-separated items."""
    items = [item(p)]
    while p.accept(","):
        items.append(item(p))
    return items


def _parse_dd(p: _Parser) -> int:
    p.expect("dd")
    p.expect("=")
    return p.number()


# How to read each argument slot; ``actions`` and ``terms`` take the rest of
# the argument list.
_ARG_PARSERS: dict[str, Callable[[_Parser], object]] = {
    "action": lambda p: p.ident("action name"),
    "actions": lambda p: tuple(_parse_list(p, lambda p: p.ident("action name"))),
    "term": _parse_term,
    "terms": lambda p: frozenset(_parse_list(p, _parse_term)),
    "dd": _parse_dd,
}

# Per head: the class, its number of index slots, and a reader per argument
# slot.  The fields are the index slots followed by the argument slots, so the
# values read are the class's positional arguments.
_PARSE_PLANS = {
    head: (schema.cls, len(schema.index), tuple(_ARG_PARSERS[slot] for slot in schema.args))
    for head, schema in ACTIVITIES.items()
}


def _parse_activity(p: _Parser) -> Activity:
    """``Head[index, ...](arg, ...)``, with the slots the head's schema names."""
    head = p.ident("activity")
    plan = _PARSE_PLANS.get(head)
    if plan is None:
        p.fail(f"unknown activity {head!r}")
    cls, arity, readers = plan
    values: list[object] = []
    if arity:
        p.expect("[")
        for k in range(arity):
            if k:
                p.expect(",")
            values.append(p.ident("user"))
        p.expect("]")
    if readers:
        p.expect("(")
        for k, read in enumerate(readers):
            if k:
                p.expect(",")
            values.append(read(p))
        p.expect(")")
    return cls(*values)


def parse_architecture(text: str, file: str = "<input>") -> Architecture:
    p = _Parser(tokenize(text, file))
    p.expect("architecture")
    p.expect("{")
    activities: set[Activity] = set()
    perms = Perms()
    while not p.at("}"):
        if p.at("perms"):
            p.advance()
            perms = _parse_perms_block(p)
            continue
        activities.add(_parse_activity(p))
        p.expect(";")
    p.expect("}")
    p.eof()
    pa = Architecture(activities=frozenset(activities), perms=perms)
    ok, witness = is_consistent(pa)
    if not ok:
        raise ParseError(
            f"inconsistent architecture: {witness} is owned by two users",
            SourceSpan(file, 1, 1),
        )
    return pa


def _parse_perms_block(p: _Parser) -> Perms:
    p.expect("{")
    tables: dict = {"can": {}, "by": {}, "been": {}, "group": frozenset()}  # Perms fields
    while not p.at("}"):
        key = p.ident("perms field")
        if key not in ("can", "has"):
            p.fail(f"unknown perms field {key!r}", {"can", "has"})
        _parse_perm_line(p, key, tables)
        p.expect(";")
    p.expect("}")
    return Perms(**tables)


# ---------------------------------------------------------------------------
# Architecture trace documents


_ARCH_PREDEFINED = {
    "own", "possess", "deletereq", "delete", "grouphas", "ungrouphas",
    "addfriends", "unfriends",
}


def parse_arch_trace(
    text: str, sets: ActivitySets | None = None, file: str = "<input>"
) -> list[ArchEvent]:
    p = _Parser(tokenize(text, file))
    p.expect("archtrace")
    p.expect("{")
    events: list[ArchEvent] = []
    last_t: int | None = None
    while not p.at("}"):
        span = p.current.span
        name = p.ident("event name")
        p.expect("(")
        t = user = tar = term = value = None
        actions: tuple[str, ...] = ()
        while not p.at(")"):
            key = p.ident("event field")
            p.expect("=")
            if key == "t":
                t = p.number()
            elif key == "user":
                user = p.ident("user")
            elif key == "tar":
                tar = p.ident("user")
            elif key == "var":
                term = _parse_term(p)
            elif key == "value":
                value = p.string()
            elif key == "actions":
                actions = tuple(sorted(p.name_set()))
            else:
                p.fail(f"unknown event field {key!r}",
                       {"t", "user", "tar", "var", "value", "actions"})
            if not p.accept(","):
                break
        p.expect(")")
        p.expect(";")
        if t is None:
            raise ParseError(f"event {name!r} carries no timestamp", span)
        if last_t is not None and t < last_t:
            raise ParseError(f"timestamps must be non-decreasing: {t} after {last_t}", span)
        last_t = t
        kind, action = _resolve_arch_event_name(name, tar, sets, span)
        if kind in ("act2", "unact2") and tar is None:
            raise ParseError("binary event requires a target (tar=...)", span)
        if kind == "possess":
            user = SP
        events.append(
            ArchEvent(kind=kind, t=t, user=user, tar=tar, action=action,
                      term=term, value=value, actions=actions)
        )
    p.expect("}")
    p.eof()
    return events


def _resolve_arch_event_name(
    name: str, tar: str | None, sets: ActivitySets | None, span: SourceSpan
) -> tuple[str, str | None]:
    if name in _ARCH_PREDEFINED:
        return name, None
    for prefix, kind in (("ungroup", "ungroupact"), ("group", "groupact")):
        if name.startswith(prefix) and name not in ("grouphas", "ungrouphas"):
            return kind, name[len(prefix):]
    if sets is not None:
        act = sets.find(name)
        if act is not None:
            kind = {
                UNARY: "act1", UNARY_REVOKE: "unact1",
                BINARY: "act2", BINARY_REVOKE: "unact2",
            }[act.kind]
            return kind, name
        raise ParseError(f"unknown event {name!r}", span)
    # Without declared activity sets, infer the family from the shape.
    revoke = name.startswith("un")
    if tar is not None:
        return ("unact2" if revoke else "act2"), name
    return ("unact1" if revoke else "act1"), name


# ---------------------------------------------------------------------------
# Query documents


def parse_has_query(text: str, file: str = "<input>") -> HasProperty:
    p = _Parser(tokenize(text, file))
    prop = _parse_query_conj(p)
    p.eof()
    return prop


def _parse_query_conj(p: _Parser) -> HasProperty:
    parts = [_parse_query_atom(p)]
    while p.accept("AND"):
        parts.append(_parse_query_atom(p))
    if len(parts) == 1:
        return parts[0]
    return And(tuple(parts))


def _parse_query_atom(p: _Parser) -> HasProperty:
    head = p.ident("HAS form")
    if head == "HAS_sp":
        p.expect("(")
        var = _parse_term(p)
        p.expect(")")
        return HasSp(_require_var(p, var))
    if head in ("HAS", "HAS_not"):
        p.expect("[")
        user = p.ident("principal")
        p.expect("]")
        p.expect("(")
        var = _parse_term(p)
        p.expect(",")
        p.expect("t")
        p.expect("=")
        t = p.number()
        p.expect(")")
        cls = Has if head == "HAS" else HasNot
        return cls(user, _require_var(p, var), t)
    if head == "HAS_never":
        p.expect("[")
        user = p.ident("principal")
        p.expect("]")
        p.expect("(")
        var = _parse_term(p)
        p.expect(")")
        return HasNever(user, _require_var(p, var))
    p.fail(f"unknown HAS form {head!r}", {"HAS_sp", "HAS", "HAS_not", "HAS_never"})
    raise AssertionError


def _require_var(p: _Parser, term: Term) -> Var:
    if not isinstance(term, Var):
        p.fail("possession queries take a plain variable")
    return term  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Serialization


def _fmt_set(items: Iterable[str]) -> str:
    return "{" + ", ".join(sorted(items)) + "}"


def _perm_lines(perms: Perms) -> list[str]:
    """The ``can`` and ``has`` lines of a permission table, in canonical order;
    policy blocks and perms blocks share this printer."""
    lines = [f"can {action} = {_fmt_set(perms.can[action])};"
             for action in sorted(perms.can) if perms.can[action]]
    for which, table in (("by", perms.by), ("been", perms.been)):
        for action in sorted(table):
            for user in sorted(table[action]):
                if table[action][user]:
                    lines.append(f"has {which} {action} {user} = {_fmt_set(table[action][user])};")
    if perms.group:
        lines.append(f"has group = {_fmt_set(perms.group)};")
    return lines


def serialize_policy(model: PolicyModel) -> str:
    lines = ["actions {"]
    for base, rev in zip(model.sets.a1, model.sets.ua1):
        lines.append(f"  unary {base.name}/{rev.name};")
    for base, rev in zip(model.sets.a2, model.sets.ua2):
        lines.append(f"  binary {base.name}/{rev.name};")
    lines.append("}")
    if model.alias is not None:
        actions = ", ".join(model.alias.actions)
        lines.append(
            f"alias {model.alias.add_name}/{model.alias.remove_name}"
            f" = groupact({actions}) + grouphas;"
        )
    for ident in sorted(model.data):
        dt = model.data[ident]
        pol = model.policies[ident]
        lines.append(f"data {ident} {{")
        lines.append(f"  ow = {dt.ow};")
        lines.append(f"  ds = {_fmt_set(dt.ds)};")
        lines.append(f"  type = {dt.dtype};")
        lines.append("  policy {")
        lines.append(f"    purposes = {_fmt_set(pol.ap)};")
        modes = ", ".join(f"{m}:{dd}" for m, dd in sorted(pol.dm.modes))
        lines.append(f"    delete = {{{modes}}};")
        lines.append(f"    where = {_fmt_set(pol.storage.wh)};")
        forms = ", ".join(
            "plain" if form == ("plain", "none") else f"enc({form[1]})"
            for form in sorted(pol.storage.ho)
        )
        lines.append(f"    how = {{{forms}}};")
        lines += [f"    {line}" for line in _perm_lines(pol.perms)]
        lines.append("  }")
        lines.append("}")
    return "\n".join(lines) + "\n"


def _surface_events(events: Sequence[AbstractEvent], model: PolicyModel):
    """Collapse alias expansions back into their surface form."""
    alias = model.alias
    out: list = []
    i = 0
    n = len(events)
    while i < n:
        e = events[i]
        if alias is not None and e.kind in (GROUPACT, UNGROUPACT):
            adding = e.kind == GROUPACT
            want = len(alias.actions) + 1
            run = events[i : i + want]
            if _is_alias_run(run, alias, adding):
                name = alias.add_name if adding else alias.remove_name
                out.append(("alias", name, run[0]))
                i += want
                continue
        out.append(("event", None, e))
        i += 1
    return out


def _is_alias_run(run: Sequence[AbstractEvent], alias: FriendAlias, adding: bool) -> bool:
    if len(run) != len(alias.actions) + 1:
        return False
    first = run[0]
    kind = GROUPACT if adding else UNGROUPACT
    has_kind = GROUPHAS if adding else UNGROUPHAS
    for e, action in zip(run[:-1], alias.actions):
        if (e.kind, e.action, e.t, e.actor, e.tar, e.dt) != (
            kind, action, first.t, first.actor, first.tar, first.dt
        ):
            return False
    last = run[-1]
    return (last.kind, last.t, last.actor, last.tar, last.dt) == (
        has_kind, first.t, first.actor, first.tar, first.dt
    )


def serialize_trace(events: Sequence[AbstractEvent], model: PolicyModel) -> str:
    lines = ["trace {"]
    for tag, name, e in _surface_events(events, model):
        if tag == "alias":
            lines.append(f"  {name}(t={e.t}, or={e.actor}, tar={e.tar}, dt={e.dt.ident});")
            continue
        fields = [f"t={e.t}"]
        if e.actor is not None:
            fields.append(f"or={e.actor}")
        if e.tar is not None:
            fields.append(f"tar={e.tar}")
        fields.append(f"dt={e.dt.ident}")
        if e.kind == USE and e.purposes is not None:
            fields.append(f"purposes={_fmt_set(e.purposes)}")
        if e.kind == OWN and e.value is not None:
            fields.append(f'value="{e.value}"')
        lines.append(f"  {e.surface_name}({', '.join(fields)});")
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_term(term: Term) -> str:
    if isinstance(term, Var):
        ds = term.ds if isinstance(term.ds, str) else _fmt_set(term.ds)
        return f"X{{ow={term.ow}, ds={ds}, id={term.ident}}}"
    if isinstance(term, KeyVar):
        return f"key[{term.owner}]"
    if isinstance(term, Func):
        return f"{term.name}({', '.join(serialize_term(a) for a in term.args)})"
    raise TypeError(f"unknown term {term!r}")


# How to print each argument slot.
_ARG_PRINTERS: dict[str, Callable] = {
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


def serialize_architecture(pa: Architecture) -> str:
    if not pa.activities and pa.perms.is_empty():
        return "architecture {}\n"
    lines = ["architecture {"]
    for text in sorted(map(serialize_activity, pa.activities)):
        lines.append(f"  {text};")
    if not pa.perms.is_empty():
        lines.append("  perms {")
        lines += [f"    {line}" for line in _perm_lines(pa.perms)]
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_arch_trace(events: Sequence[ArchEvent]) -> str:
    lines = ["archtrace {"]
    for e in events:
        if e.kind in ("groupact", "ungroupact"):
            name = ("group" if e.kind == "groupact" else "ungroup") + (e.action or "")
        elif e.kind in ("act1", "unact1", "act2", "unact2"):
            name = e.action or e.kind
        else:
            name = e.kind
        fields = [f"t={e.t}"]
        if e.user is not None and e.kind != "possess":
            fields.append(f"user={e.user}")
        if e.tar is not None:
            fields.append(f"tar={e.tar}")
        if e.term is not None:
            fields.append(f"var={serialize_term(e.term)}")
        if e.value is not None:
            fields.append(f'value="{e.value}"')
        if e.actions:
            fields.append(f"actions={_fmt_set(e.actions)}")
        lines.append(f"  {name}({', '.join(fields)});")
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_query(prop: HasProperty) -> str:
    if isinstance(prop, And):
        return " AND ".join(serialize_query(p) for p in prop.parts)
    if isinstance(prop, HasSp):
        return f"HAS_sp({serialize_term(prop.var)})"
    if isinstance(prop, Has):
        return f"HAS[{prop.user}]({serialize_term(prop.var)}, t={prop.t})"
    if isinstance(prop, HasNot):
        return f"HAS_not[{prop.user}]({serialize_term(prop.var)}, t={prop.t})"
    if isinstance(prop, HasNever):
        return f"HAS_never[{prop.user}]({serialize_term(prop.var)})"
    raise TypeError(f"unknown property {prop!r}")


def sniff_kind(text: str) -> str:
    """Best-effort document kind from the first keyword."""
    for tok in tokenize(text):
        if tok.kind == "ident":
            return {
                "actions": "policy",
                "trace": "trace",
                "architecture": "architecture",
                "archtrace": "arch-trace",
            }.get(tok.text, "query")
        break
    return "query"
