"""Concrete syntax for the five document kinds: policy models (.dcp), event
traces and architecture traces (.dct), architectures (.dca), and possession
queries (.dcq).

The grammar is line-oriented and block-structured; ``#`` starts a comment.
Serialization is canonical (sorted set elements, one declaration per line),
and parse∘serialize is the identity on every valid document.
"""

from __future__ import annotations

import re
from itertools import islice
from operator import attrgetter
from typing import Any, Callable, Iterable, NoReturn, Sequence, TypeVar

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
    pair_lines,
    perm_lines,
    serialize_activity,
    serialize_set,
    serialize_term,
)
from .logic import FORMS, SLOTS, And, HasProperty
from .model import (
    SP,
    ActivitySets,
    DataRef,
    DeletionSpec,
    FriendAlias,
    Perms,
    Policy,
    PolicyModel,
    StorageSpec,
    perms_errors,
    record,
    validate_activity_sets,
    validate_model,
)
from .semantics import (
    ACT2,
    DELETE,
    GROUPACT,
    GROUPHAS,
    OWN,
    STORE,
    UNACT2,
    UNGROUPACT,
    UNGROUPHAS,
    USE,
    AbstractEvent,
    EventTemplate,
    event_name,
    possible_events,
)

T = TypeVar("T")


@record
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


# One match per token: the blanks and comments before a token, then the token.
# A token is its text, a string with its quotes, so its first character tells
# its kind; the empty token at the end is ``eof``.  Any other character, the
# opening quote of an unterminated string included, starts a token that runs
# to the end of the text, so that it is always the last token before ``eof``
# and ``tokenize`` rejects it by looking at that one token.  The skip is
# blanks, then either nothing or comments with blanks between and after them:
# an empty alternative, not a repeat, so a skip without a comment, the usual
# one, enters no repeat.  The longest skip, which the matcher tries first,
# always leads to a token (the bad character's or ``\Z``), so no run gives
# characters back.  Identifiers, the most frequent, come first.
_TOKEN = re.compile(r'[ \t\r\n]*(?:#[^\n]*(?:[ \t\r\n]*#[^\n]*)*[ \t\r\n]*|)'
                    r'([A-Za-z_?][A-Za-z0-9_?-]*|[{}()\[\]=,;:/+]|"[^"\n]*"|[0-9]+|.[\s\S]*|\Z)')
_STRING = re.compile(r'"[^"\n]*"')
# The first characters of the number, identifier and punctuation tokens.
_DIGITS = frozenset("0123456789")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_?")
_STARTS = _IDENT_START | _DIGITS | frozenset("{}()[]=,;:/+")


def locate(text: str, offset: int, file: str = "<input>") -> SourceSpan:
    """The line and column, both counted from 1, of ``offset`` in ``text``."""
    line_start = text.rfind("\n", 0, offset) + 1
    return SourceSpan(file, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def tokenize(text: str, file: str = "<input>") -> list[str]:
    """The tokens of ``text``, ending in one ``eof`` token."""
    tokens = _shared_block_tokens(text)
    if tokens is None:
        tokens = _TOKEN.findall(text)
        if tokens[-2:] == ["", ""]:  # text ending in a blank or a comment matches eof twice
            tokens.pop()
        if len(tokens) > 1 and _is_bad(tokens[-2]):
            m = next(m for m in _TOKEN.finditer(text) if _is_bad(m[1]))
            c = m[1][0]
            message = "unterminated string" if c == '"' else f"unexpected character {c!r}"
            raise ParseError(message, locate(text, m.start(1), file))
    return tokens


def _is_bad(token: str) -> bool:
    """Whether a token other than ``eof`` starts at a character that starts
    no token, and so runs to the end of the text (or of the piece lexed)."""
    return token[0] not in _STARTS and (token[0] != '"' or _STRING.fullmatch(token) is None)


def _shared_block_tokens(text: str) -> list[str] | None:
    """The tokens of a document that repeats a ``data`` block body, as one
    that gives many data the same policy does, with each distinct body lexed
    once; None if no two bodies are equal.

    The text is cut at each newline followed by ``data``.  Each piece's
    first line, the block's head, is lexed alone; the rest of the piece, its
    body, is lexed once per distinct text, and every copy shares that token
    run, the same strings.  No token spans a newline (only the skip of blanks
    and comments does, and it yields none), so lexing the text in pieces cut
    at newlines gives the tokens of the whole."""
    pieces = text.split("\ndata ")
    if len(pieces) < 3:
        return None
    blocks = [piece.partition("\n") for piece in pieces[1:]]
    if len({body for _, _, body in blocks}) == len(blocks):
        return None
    tokens = _piece_tokens(pieces[0])
    runs: dict[str, list[str] | None] = {}
    for head, _, body in blocks:
        head_run = _piece_tokens(head)
        if body not in runs:
            runs[body] = _piece_tokens(body)
        run = runs[body]
        if tokens is None or head_run is None or run is None:
            return None  # lexing the whole text locates the bad character
        tokens.append("data")
        tokens += head_run
        tokens += run
    tokens.append("")
    return tokens


def _piece_tokens(piece: str) -> list[str] | None:
    """The tokens of a piece of a text, without ``eof``; None if one of them
    is bad, which makes it the last, as it runs to the end of the piece."""
    tokens = _TOKEN.findall(piece)
    del tokens[tokens.index(""):]
    return None if tokens and _is_bad(tokens[-1]) else tokens


class _Parser:
    """A cursor over one document's tokens; ``current`` is the next one and
    ``pos`` its index, which ``error`` turns into a line and column.  The
    readers step the cursor themselves: the step is the parser's most
    frequent operation, so it is two assignments rather than a call."""

    def __init__(self, text: str, file: str):
        self.text = text
        self.file = file
        self.tokens = tokenize(text, file)
        self.pos = 0
        self.current = self.tokens[0]

    def accept(self, text: str) -> bool:
        if self.current != text:
            return False
        self.pos += 1
        self.current = self.tokens[self.pos]
        return True

    def expect(self, text: str) -> None:
        if self.current != text:
            self.missing(text)
        self.pos += 1
        self.current = self.tokens[self.pos]

    def describe(self) -> str:
        tok = self.current
        if not tok:
            return "end of input"
        return repr(tok[1:-1] if tok[0] == '"' else tok)

    def error(self, message: str, at: int | None, expected: Iterable[str] = ()) -> NoReturn:
        """Fail at token number ``at``, or at the start of the document if None;
        the token's offset is found by lexing again up to it."""
        offset = 0 if at is None else next(islice(_TOKEN.finditer(self.text), at, None)).start(1)
        raise ParseError(message, locate(self.text, offset, self.file), frozenset(expected))

    def fail(self, message: str, expected: Iterable[str] = ()) -> NoReturn:
        self.error(message, self.pos, expected)

    def fail_previous(self, message: str, expected: Iterable[str] = ()) -> NoReturn:
        """Fail at the token just read."""
        self.error(message, self.pos - 1, expected)

    def missing(self, what: str) -> NoReturn:
        """Fail at the current token, which is not the ``what`` the grammar
        needs there."""
        self.fail(f"found {self.describe()}", {what})

    def ident(self, what: str = "identifier") -> str:
        tok = self.current
        if tok[:1] not in _IDENT_START:
            self.missing(what)
        self.pos += 1
        self.current = self.tokens[self.pos]
        return tok

    def number(self) -> int:
        tok = self.current
        if tok[:1] not in _DIGITS:
            self.missing("number")
        self.pos += 1
        self.current = self.tokens[self.pos]
        return int(tok)

    def string(self) -> str:
        tok = self.current
        if tok[:1] != '"':
            self.missing("string")
        self.pos += 1
        self.current = self.tokens[self.pos]
        return tok[1:-1]

    def items(self, left: str, right: str, read: Callable[[_Parser], T]) -> list[T]:
        """``left item, item, ... right``: possibly empty, a trailing comma allowed."""
        self.expect(left)
        out = []
        while self.current != right:
            out.append(read(self))
            if not self.accept(","):
                break
        self.expect(right)
        return out

    def one_or_more(self, left: str, right: str, read: Callable[[_Parser], T]) -> list[T]:
        """``left item, item, ... right``: at least one item, no trailing comma."""
        self.expect(left)
        out = _parse_list(self, read)
        self.expect(right)
        return out

    def name_set(self) -> frozenset[str]:
        """`{ a, b, c }` (possibly empty)."""
        return frozenset(self.items("{", "}", _set_element))

    def eof(self) -> None:
        if self.current:
            self.fail(f"trailing input {self.describe()}", {"end of input"})


def _ident(what: str) -> Callable[[_Parser], str]:
    """A reader of one identifier, named ``what`` when it is missing."""
    return lambda p: p.ident(what)


_set_element = _ident("set element")
_action_name = _ident("action name")


def _parse_fields(
    p: _Parser, what: str, readers: dict[str, Callable[[_Parser], object]], brackets: str = "()"
) -> dict:
    """``(key=value, ...)``, each value read by its key's reader, as ``items``
    reads a list; a repeated key is an error at its second occurrence."""
    left, right = brackets
    label = what + " field"
    p.expect(left)
    fields = {}
    while p.current != right:
        key = p.ident(label)
        if key in fields:
            p.fail_previous(f"repeated {what} field {key!r}")
        p.expect("=")
        read = readers.get(key)
        if read is None:
            p.fail_previous(f"unknown {what} field {key!r}", readers)
        fields[key] = read(p)
        if not p.accept(","):
            break
    p.expect(right)
    return fields


# A field table maps each key of a field list to the one entry that reads and
# prints it: (the reader of the value after ``key =``, the printer of the value
# from the record printed, None leaving the field out, and the event kinds that
# carry the field, None for every kind).
_Fields = dict[str, tuple[Callable[[_Parser], object], Callable[[Any], object], Any]]


def _event_fields(table: _Fields) -> tuple[dict[str, Callable[[_Parser], object]], dict]:
    """The readers of an event's field table, as ``_parse_fields`` takes them,
    and per event kind of either level, the printers of the fields it carries."""
    kinds = {schema.kind for schema in ACTIVITIES.values()} | {STORE, USE}
    return {key: read for key, (read, _, _) in table.items()}, {
        kind: {key: show for key, (_, show, carriers) in table.items()
               if carriers is None or kind in carriers} for kind in kinds}


# ---------------------------------------------------------------------------
# Policy documents


# The fields of a datum besides its policy block.
_DATUM_FIELDS: _Fields = {
    "ow": (_ident("owner"), attrgetter("ow"), None),
    "ds": (_Parser.name_set, lambda dt: serialize_set(dt.ds), None),
    "type": (_ident("type name"), attrgetter("dtype"), None),
}


def parse_policy(text: str, file: str = "<input>") -> PolicyModel:
    p = _Parser(text, file)
    if not p.current:
        p.fail("empty document", {"actions"})
    sets = _parse_actions(p)

    alias = None
    if p.accept("alias"):
        add_name = p.ident("alias name")
        p.expect("/")
        remove_name = p.ident("alias name")
        p.expect("=")
        p.expect("groupact")
        actions = p.one_or_more("(", ")", _action_name)
        p.expect("+")
        p.expect("grouphas")
        p.expect(";")
        alias = FriendAlias(add_name, remove_name, tuple(actions))

    model = PolicyModel(sets=sets, alias=alias)
    blocks: dict[tuple[str, ...], Policy] = {}
    while p.accept("data"):
        at = p.pos
        ident = p.ident("datum id")
        p.expect("{")
        fields: dict = {}
        while p.current != "}":
            key = p.ident("datum field")
            if key in fields:
                p.fail_previous(f"repeated datum field {key!r}")
            if key == "policy":
                fields[key] = _shared_policy_block(p, blocks)
                continue
            field = _DATUM_FIELDS.get(key)
            if field is None:
                p.fail_previous(f"unknown datum field {key!r}", {*_DATUM_FIELDS, "policy"})
            p.expect("=")
            fields[key] = field[0](p)
            p.expect(";")
        p.expect("}")
        if len(fields) <= len(_DATUM_FIELDS):
            p.error(f"datum {ident!r} is missing ow/ds/type/policy", at)
        if ident in model.data:
            p.error(f"duplicate datum {ident!r}", at)
        model.data[ident] = DataRef(fields["ow"], fields["ds"], fields["type"], ident)
        model.policies[ident] = fields["policy"]
    p.eof()

    errors = validate_model(model) + _event_table(sets, alias)[1]
    if errors:
        p.error("; ".join(errors), None)
    return model


def _parse_actions(p: _Parser) -> ActivitySets:
    """``actions { unary a/una; binary b/unb; ... }``, which policies and
    architectures share."""
    p.expect("actions")
    p.expect("{")
    pairs: dict[str, list[tuple[str, str]]] = {"unary": [], "binary": []}
    while p.current != "}":
        family = p.ident("unary or binary")
        if family not in pairs:
            p.fail_previous(f"unknown action family {family!r}", pairs)
        base = p.ident("action name")
        p.expect("/")
        rev = p.ident("revoke action name")
        p.expect(";")
        pairs[family].append((base, rev))
    p.expect("}")
    return ActivitySets(unary=tuple(pairs["unary"]), binary=tuple(pairs["binary"]))


def _deletion_mode(p: _Parser) -> tuple[str, int]:
    mode = p.ident("deletion mode")
    p.expect(":")
    return mode, p.number()


def _storage_form(p: _Parser) -> tuple[str, str]:
    form = p.ident("storage form")
    if form == "plain":
        return ("plain", "none")
    if form != "enc":
        p.fail_previous(f"unknown storage form {form!r}", {"plain", "enc"})
    p.expect("(")
    key_kind = p.ident("key kind")
    p.expect(")")
    return ("enc", key_kind)


# The fields of a policy block besides its permission lines.
_POLICY_FIELDS: _Fields = {
    "purposes": (_Parser.name_set, lambda pol: serialize_set(pol.ap), None),
    "delete": (lambda p: DeletionSpec(tuple(sorted(p.one_or_more("{", "}", _deletion_mode)))),
               lambda pol: "{" + ", ".join(f"{m}:{dd}" for m, dd in sorted(pol.dm.modes)) + "}", None),
    "where": (_Parser.name_set, lambda pol: serialize_set(pol.storage.wh), None),
    "how": (lambda p: frozenset(p.one_or_more("{", "}", _storage_form)),
            lambda pol: "{" + ", ".join("plain" if form == ("plain", "none") else f"enc({form[1]})"
                                        for form in sorted(pol.storage.ho)) + "}", None),
}


def _shared_policy_block(p: _Parser, blocks: dict[tuple[str, ...], Policy]) -> Policy:
    """The policy block at the cursor, read once per distinct token run:
    ``blocks`` maps each run that ``_parse_policy_block`` consumed exactly to
    the ``Policy`` it returned.  That reader decides from the tokens it
    consumes alone, so a block equal to such a run is stepped over and shares
    its ``Policy``.  Any other block goes to the reader, which reports its
    errors as usual."""
    tokens, start = p.tokens, p.pos
    try:
        # The candidate end: in a well-formed block every ``}`` but the
        # closing one is followed by ``;``.
        end = tokens.index("}", start)
        while tokens[end + 1] == ";":
            end = tokens.index("}", end + 1)
    except ValueError:  # no closing brace: the reader reports the error
        return _parse_policy_block(p)
    run = tuple(tokens[start:end + 1])
    pol = blocks.get(run)
    if pol is not None:
        p.pos = end + 1
        p.current = tokens[p.pos]
        return pol
    pol = _parse_policy_block(p)
    if p.pos == end + 1:
        blocks[run] = pol
    return pol


def _parse_policy_block(p: _Parser) -> Policy:
    fields, perms = _parse_block(p, "policy", _POLICY_FIELDS)
    return Policy(
        ap=fields.get("purposes", frozenset()),
        dm=fields.get("delete", DeletionSpec()),
        storage=StorageSpec(wh=fields.get("where", frozenset()), ho=fields.get("how", frozenset())),
        perms=perms,
    )


def _parse_block(p: _Parser, what: str, table: _Fields) -> tuple[dict, Perms]:
    """``{ line; ... }`` of a policy block, or of a perms block, which has no
    fields: its permission lines, and each field of ``table`` at most once."""
    label = what + " field"
    p.expect("{")
    fields: dict = {}
    tables: dict = {"can": {}, "by": {}, "been": {}}  # Perms fields
    while p.current != "}":
        key = p.ident(label)
        if key == "can" or key == "has":  # the most frequent lines
            _parse_perm_line(p, key, tables)
        else:
            field = table.get(key)
            if field is None:
                p.fail_previous(f"unknown {label} {key!r}", {*table, "can", "has"})
            if key in fields:
                p.fail_previous(f"repeated {label} {key!r}")
            p.expect("=")
            fields[key] = field[0](p)
        p.expect(";")
    p.expect("}")
    # An empty grant reads as absent, as the printer leaves it out.
    can = {action: users for action, users in tables["can"].items() if users}
    by, been = ({action: held for action, per_user in tables[which].items()
                 if (held := {user: users for user, users in per_user.items() if users})}
                for which in ("by", "been"))
    return fields, Perms(can, by, been, tables.get("group", frozenset()))


def _parse_perm_line(p: _Parser, key: str, tables: dict) -> None:
    """The rest of a ``can ACT = {...}`` or ``has by|been ACT USER = {...}`` /
    ``has group = {...}`` line after its keyword ``key``, into ``tables``.
    Policy blocks and perms blocks share this reader.  A line whose entry an
    earlier line has set is an error at its keyword."""
    at = p.pos - 1
    if key == "can":
        table, entry = tables["can"], p.ident("action name")
    else:
        which = p.ident("by, been, or group")
        if which == "group":
            table, entry = tables, "group"
        elif which in ("by", "been"):
            table = tables[which].setdefault(p.ident("action name"), {})
            entry = p.ident("user")
        else:
            p.fail_previous(f"unknown has table {which!r}", {"by", "been", "group"})
    if entry in table:
        p.error(f"repeated permission {' '.join(p.tokens[at:p.pos])!r}", at)
    p.expect("=")
    table[entry] = p.name_set()


# ---------------------------------------------------------------------------
# Trace documents


class _Reject(Exception):
    """A well-formed event that the document's declarations do not admit;
    the trace parsers report it at the event's name."""


def _read_events(
    p: _Parser, head: str, readers: dict[str, Callable[[_Parser], object]],
    printers: dict[str, dict], strict: bool, build: Callable[[str, int, dict], Sequence[T]],
) -> list[T]:
    """``head { name(field=value, ...); ... }`` at both trace levels.  Each
    event needs a timestamp, strictly increasing if ``strict``, else
    non-decreasing; ``build(name, t, fields)`` returns the events it stands
    for.  A ``_Reject`` it raises, and a field that their kind does not
    carry, are reported at the event's name."""
    p.expect(head)
    p.expect("{")
    events: list[T] = []
    last_t: int | None = None
    while p.current != "}":
        at = p.pos
        name = p.ident("event name")
        fields = _parse_fields(p, "event", readers)
        p.expect(";")
        t = fields.get("t")
        if t is None:
            p.error(f"event {name!r} carries no timestamp", at)
        if last_t is not None and (t <= last_t if strict else t < last_t):
            order = "strictly increasing" if strict else "non-decreasing"
            p.error(f"timestamps must be {order}: {t} after {last_t}", at)
        last_t = t
        try:
            built = build(name, t, fields)
            carried = printers[built[0].kind]
            if not fields.keys() <= carried.keys():
                key = next(key for key in fields if key not in carried)
                raise _Reject(f"event {name!r} does not take {key}=...")
        except _Reject as err:
            p.error(str(err), at)
        events += built
    p.expect("}")
    p.eof()
    return events


def _event_table(sets: ActivitySets,
                 alias: FriendAlias | None = None) -> tuple[dict[str, EventTemplate], list[str]]:
    """The event inventory of ``sets`` by name, and the names that would make
    a trace ambiguous: one that two templates share, one that a template with
    an action shares with an action-free architecture event, or an alias name
    that is also a template's.  Each name is reported once."""
    table: dict[str, EventTemplate] = {}
    clashes: dict[str, str] = {}
    for template in possible_events(sets):
        name = template.name
        if table.setdefault(name, template) is not template:
            clashes[name] = f"two events are named {name!r}"
        elif template.action is not None and name in _ACTION_FREE:
            clashes[name] = f"event {name!r} is also an architecture event name"
    errors = list(clashes.values())
    if alias is not None:
        errors += [f"alias name {name!r} is also an event name"
                   for name in (alias.add_name, alias.remove_name) if name in table]
    return table, errors


_TRACE_FIELDS: _Fields = {
    "t": (_Parser.number, attrgetter("t"), None),
    "or": (_ident("name"), attrgetter("actor"), None),
    "tar": (_ident("name"), attrgetter("tar"), None),
    "dt": (_ident("name"), attrgetter("dt.ident"), None),
    "purposes": (_Parser.name_set, lambda e: None if e.purposes is None else serialize_set(e.purposes),
                 frozenset({USE})),
    "value": (_Parser.string, lambda e: None if e.value is None else f'"{e.value}"', frozenset({OWN})),
}
_TRACE_READERS, _TRACE_PRINTERS = _event_fields(_TRACE_FIELDS)


def parse_trace(text: str, model: PolicyModel, file: str = "<input>") -> list[AbstractEvent]:
    table = _event_table(model.sets)[0]
    alias = model.alias
    actions = () if alias is None else alias.actions
    adds = {} if alias is None else {alias.add_name: True, alias.remove_name: False}

    def build(name: str, t: int, fields: dict) -> Sequence[AbstractEvent]:
        dt_ident = fields.get("dt")
        if dt_ident is None:
            raise _Reject(f"event {name!r} names no datum")
        dt = model.data.get(dt_ident)
        if dt is None:
            raise _Reject(f"unknown datum {dt_ident!r}")
        actor, tar = fields.get("or"), fields.get("tar")
        if name in adds:
            if actor is None or tar is None:
                raise _Reject(f"{name!r} requires or=... and tar=...")
            return _alias_run(actions, adds[name], t, dt, actor, tar)
        template = table.get(name)
        if template is None:
            raise _Reject(f"unknown event {name!r}")
        kind, binary = template.kind, template.binary
        if actor is None and kind not in (STORE, USE, DELETE):
            raise _Reject("event requires a performer (or=...)")
        if binary and tar is None:
            raise _Reject("binary event requires a target (tar=...)")
        if not binary and tar is not None:
            raise _Reject("unary event does not take a target")
        return (AbstractEvent(kind, t, dt, actor, tar, template.action, fields.get("purposes"),
                              fields.get("value"), model.policy_of(dt) if kind == OWN else None),)

    return _read_events(_Parser(text, file), "trace", _TRACE_READERS, _TRACE_PRINTERS, True, build)


def _alias_run(
    actions: Sequence[str], adding: bool, t: int, dt: DataRef, actor: str | None, tar: str | None,
) -> list[AbstractEvent]:
    """The events an alias event over ``actions`` stands for: one group event
    per action plus the has-group event, all at the alias event's time."""
    kind, has_kind = (GROUPACT, GROUPHAS) if adding else (UNGROUPACT, UNGROUPHAS)
    run = [AbstractEvent(kind, t, dt, actor, tar, action) for action in actions]
    return run + [AbstractEvent(has_kind, t, dt, actor, tar)]


# ---------------------------------------------------------------------------
# Architecture documents


def _var_ds(p: _Parser) -> frozenset[str] | str:
    if p.current[:1] == "?":
        return p.ident()
    return p.name_set()


_VAR_FIELDS: dict[str, Callable[[_Parser], object]] = {
    "ow": _ident("owner"),
    "ds": _var_ds,
    "id": _ident("identifier"),
}


# The most function applications a term nests.  Printing, matching and the
# deduction rules recurse a few frames per level, so the limit keeps them far
# below the interpreter's recursion limit.
MAX_TERM_DEPTH = 100


def _parse_term(p: _Parser, depth: int = 0) -> Term:
    """A term, read inside ``depth`` function applications."""
    head = p.ident("term")
    if head == "X":
        fields = _parse_fields(p, "variable", _VAR_FIELDS, "{}")
        if len(fields) < len(_VAR_FIELDS):
            p.fail("variable requires ow, ds, and id")
        return Var(ow=fields["ow"], ds=fields["ds"], ident=fields["id"])
    if head == "key":
        p.expect("[")
        owner = p.ident("key owner")
        p.expect("]")
        return KeyVar(owner)
    if head in ("enc", "hash", "sig"):
        if depth == MAX_TERM_DEPTH:
            p.fail_previous(f"term nests more than {MAX_TERM_DEPTH} function applications")
        return Func(head, tuple(p.one_or_more("(", ")", lambda p: _parse_term(p, depth + 1))))
    p.fail_previous(f"unknown term head {head!r}", {"X", "key", "enc", "hash", "sig"})


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
    "action": _action_name,
    "actions": lambda p: tuple(_parse_list(p, _action_name)),
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
        p.fail_previous(f"unknown activity {head!r}")
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


# Per activity class that names actions: the event kind that declares them.
# The friends activities name base actions, as ``groupact`` does.
_ACTION_KINDS = {schema.cls: GROUPACT if "actions" in schema.args else schema.kind
                 for schema in ACTIVITIES.values() if {"action", "actions"} & {*schema.args}}


def parse_architecture(text: str, file: str = "<input>") -> Architecture:
    """An architecture, whose activities and permission lines name only the
    actions that its actions block, first if given, declares for them."""
    p = _Parser(text, file)
    p.expect("architecture")
    p.expect("{")
    sets = _parse_actions(p) if p.current == "actions" else ActivitySets()
    inventory, clashes = _event_table(sets)
    errors = validate_activity_sets(sets) + clashes
    if errors:
        p.error("; ".join(errors), None)
    declared = {(t.kind, t.action) for t in inventory.values()}
    activities: set[Activity] = set()
    perms = Perms()
    while p.current != "}":
        at = p.pos
        if p.accept("perms"):
            perms = _parse_block(p, "perms", {})[1]
            for head, message in perms_errors(perms, sets):  # located at the action
                words = head.split()
                p.error(message, next(i for i in range(at, p.pos)
                                      if p.tokens[i:i + len(words)] == words) + len(words) - 1)
            continue
        act = _parse_activity(p)
        kind = _ACTION_KINDS.get(type(act))
        for action in () if kind is None else getattr(act, "actions", ()) or (act.action,):
            if (kind, action) not in declared:  # located at the action
                p.error(f"action {action!r} is not declared for {type(act).__name__}",
                        p.tokens.index(action, p.tokens.index("(", at)))
        activities.add(act)
        p.expect(";")
    p.expect("}")
    p.eof()
    pa = Architecture(activities=frozenset(activities), perms=perms, sets=sets)
    ok, witness = is_consistent(pa)
    if not ok:
        p.error(f"inconsistent architecture: {witness} is owned by two users", None)
    return pa


# ---------------------------------------------------------------------------
# Architecture trace documents


# The architecture-trace events that name no action: one per activity kind
# without an ``action`` slot, each named after its kind.
_ACTION_FREE = {schema.kind: (schema.kind, None)
                for schema in ACTIVITIES.values() if "action" not in schema.args}


def _kinds_with(*slots: str) -> frozenset[str]:
    """The kinds of the activities that have one of ``slots``."""
    return frozenset(s.kind for s in ACTIVITIES.values() if set(slots) & {*s.index, *s.args})


_ARCH_TRACE_FIELDS: _Fields = {
    "t": (_Parser.number, attrgetter("t"), None),
    "user": (_ident("user"), attrgetter("user"), _kinds_with("user")),
    "tar": (_ident("user"), attrgetter("tar"), _kinds_with("tar")),
    "var": (_parse_term, lambda e: None if e.term is None else serialize_term(e.term),
            _kinds_with("term", "terms")),
    "value": (_Parser.string, lambda e: None if e.value is None else f'"{e.value}"',
              _kinds_with("term", "terms")),
    "actions": (lambda p: tuple(sorted(p.name_set())),
                lambda e: serialize_set(e.actions) if e.actions else None, _kinds_with("actions")),
}
_ARCH_TRACE_READERS, _ARCH_TRACE_PRINTERS = _event_fields(_ARCH_TRACE_FIELDS)


def parse_arch_trace(text: str, sets: ActivitySets, file: str = "<input>") -> list[ArchEvent]:
    """An architecture trace, whose event names are the action-free kinds and
    the group and declared-action events of the inventory of ``sets``."""
    table = {t.name: (t.kind, t.action) for t in possible_events(sets) if t.action is not None}
    table.update(_ACTION_FREE)

    def build(name: str, t: int, fields: dict) -> Sequence[ArchEvent]:
        tar, found = fields.get("tar"), table.get(name)
        if found is None:
            raise _Reject(f"unknown event {name!r}")
        kind, action = found
        if kind in (ACT2, UNACT2) and tar is None:
            raise _Reject("binary event requires a target (tar=...)")
        return (ArchEvent(
            kind=kind, t=t, user=SP if kind == "possess" else fields.get("user"), tar=tar,
            action=action, term=fields.get("var"), value=fields.get("value"),
            actions=fields.get("actions", ()),
        ),)

    return _read_events(
        _Parser(text, file), "archtrace", _ARCH_TRACE_READERS, _ARCH_TRACE_PRINTERS, False, build
    )


# ---------------------------------------------------------------------------
# Query documents


def parse_has_query(text: str, file: str = "<input>") -> HasProperty:
    p = _Parser(text, file)
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
    """``HEAD[user](term, t=N)``, with the ``[user]`` and ``, t=N`` slots
    present exactly when the form has those fields."""
    head = p.ident("HAS form")
    cls = FORMS.get(head)
    if cls is None:
        p.fail_previous(f"unknown HAS form {head!r}", set(FORMS))
    slots, values = SLOTS[cls], {}
    if "user" in slots:
        p.expect("[")
        values["user"] = p.ident("principal")
        p.expect("]")
    p.expect("(")
    at = p.pos
    term = _parse_term(p)
    if "t" in slots:
        p.expect(",")
        p.expect("t")
        p.expect("=")
        values["t"] = p.number()
    p.expect(")")
    if not isinstance(term, Var):
        p.error("possession queries take a plain variable", at)
    return cls(var=term, **values)


# ---------------------------------------------------------------------------
# Serialization


def serialize_policy(model: PolicyModel) -> str:
    lines = ["actions {", *(f"  {line}" for line in pair_lines(model.sets)), "}"]
    if model.alias is not None:
        actions = ", ".join(model.alias.actions)
        lines.append(
            f"alias {model.alias.add_name}/{model.alias.remove_name}"
            f" = groupact({actions}) + grouphas;"
        )
    for ident in sorted(model.data):
        pol = model.policies[ident]
        lines.append(f"data {ident} {{")
        lines += [f"  {key} = {show(model.data[ident])};" for key, (_, show, _) in _DATUM_FIELDS.items()]
        lines.append("  policy {")
        lines += [f"    {key} = {show(pol)};" for key, (_, show, _) in _POLICY_FIELDS.items()]
        lines += [f"    {line}" for line in perm_lines(pol.perms)]
        lines.append("  }")
        lines.append("}")
    return "\n".join(lines) + "\n"


def _print_events(head: str, printers: dict, events: Iterable[tuple[str, Any]]) -> str:
    """``head { name(field, ...); ... }`` from (name, event) pairs, at both trace levels."""
    lines = [f"{head} {{"]
    for name, e in events:
        fields = []
        for key, show in printers[e.kind].items():
            value = show(e)
            if value is not None:
                fields.append(f"{key}={value}")
        lines.append(f"  {name}({', '.join(fields)});")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _surface_events(
    events: Sequence[AbstractEvent], model: PolicyModel
) -> list[tuple[str, AbstractEvent]]:
    """(name, event) per surface event: a run of events that an alias event
    stands for collapses back into the alias name and the run's first event."""
    alias = model.alias
    out = []
    i = 0
    while i < len(events):
        e = events[i]
        if alias is not None and e.kind in (GROUPACT, UNGROUPACT):
            adding = e.kind == GROUPACT
            run = _alias_run(alias.actions, adding, e.t, e.dt, e.actor, e.tar)
            if list(events[i : i + len(run)]) == run:
                out.append((alias.add_name if adding else alias.remove_name, e))
                i += len(run)
                continue
        out.append((e.surface_name, e))
        i += 1
    return out


def serialize_trace(events: Sequence[AbstractEvent], model: PolicyModel) -> str:
    return _print_events("trace", _TRACE_PRINTERS, _surface_events(events, model))


def serialize_architecture(pa: Architecture) -> str:
    pairs, perms = pair_lines(pa.sets), perm_lines(pa.perms)
    if not pairs and not pa.activities and not perms:
        return "architecture {}\n"
    lines = ["architecture {"]
    if pairs:
        lines += ["  actions {", *(f"    {line}" for line in pairs), "  }"]
    lines += [f"  {text};" for text in sorted(map(serialize_activity, pa.activities))]
    if perms:
        lines += ["  perms {", *(f"    {line}" for line in perms), "  }"]
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_arch_trace(events: Sequence[ArchEvent]) -> str:
    named = [(event_name(e.kind, e.action), e) for e in events]
    return _print_events("archtrace", _ARCH_TRACE_PRINTERS, named)


def serialize_query(prop: HasProperty) -> str:
    if isinstance(prop, And):
        return " AND ".join(serialize_query(p) for p in prop.parts)
    slots = SLOTS.get(type(prop))
    if slots is None:
        raise TypeError(f"unknown property {prop!r}")
    user = f"[{prop.user}]" if "user" in slots else ""
    t = f", t={prop.t}" if "t" in slots else ""
    return f"{prop.head}{user}({serialize_term(prop.var)}{t})"


_KINDS = {"actions": "policy", "trace": "trace", "architecture": "architecture",
          "archtrace": "arch-trace"}


def sniff_kind(text: str) -> str:
    """Best-effort document kind from the first token alone."""
    return _KINDS.get(_TOKEN.match(text)[1], "query")
