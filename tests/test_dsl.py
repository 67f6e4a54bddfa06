"""Concrete syntax: parse/serialize round trips for all five document kinds,
canonical output, and located errors."""

import random
from pathlib import Path

import pytest

from datactl.architecture import (
    ACTIVITIES,
    Act2,
    AddFriends,
    ArchEvent,
    Architecture,
    Delete,
    DeleteReq,
    GroupAct,
    KeyVar,
    Own,
    Possess,
    PossessOneOf,
    Var,
    enc,
)
from datactl.dsl import (
    MAX_TERM_DEPTH,
    ParseError,
    SourceSpan,
    locate,
    parse_arch_trace,
    parse_architecture,
    parse_has_query,
    parse_policy,
    parse_trace,
    serialize_arch_trace,
    serialize_architecture,
    serialize_policy,
    serialize_query,
    serialize_trace,
    sniff_kind,
    tokenize,
)
from datactl.logic import And, Has, HasNever, HasNot, HasSp
from datactl.mapping import MappingContext, image_trace
from datactl.model import SP, ActivitySets, Perms, PolicyModel
from datactl.semantics import possible_events

from modelgen import compliant_trace, random_model

FIX = Path(__file__).resolve().parent.parent / "fixtures" / "facebook"
X = Var(ow="alice", ds=frozenset({"alice", "bob"}), ident="d1")
SETS = ActivitySets(unary=(("fav", "unfav"),), binary=(("link", "unlink"),))
FB_SETS = parse_policy((FIX / "facebook.dcp").read_text(encoding="utf-8")).sets


def parse_facebook_arch_trace(text, file="<input>"):
    return parse_arch_trace(text, FB_SETS, file=file)


# --- tokens and errors ------------------------------------------------------


def _token_offsets(text, tokens):
    """Each token's offset in ``text``, found by skipping the blanks and
    comments before it; fails unless every token is the text found there and
    the last one, ``eof``, sits at the end."""
    offsets, at = [], 0
    for tok in tokens:
        while at < len(text) and text[at] in " \t\r\n#":
            at = text.find("\n", at) if text[at] == "#" else at + 1
            at = len(text) if at < 0 else at
        assert text.startswith(tok, at), (tok, at)
        offsets.append(at)
        at += len(tok)
    assert tokens[-1] == "" and offsets[-1] == len(text)
    return offsets


def test_tokenizer_positions_and_comments():
    text = "actions {\n  # note\n  unary fav/unfav;\n}"
    tokens = tokenize(text, file="f.dcp")
    assert tokens == ["actions", "{", "unary", "fav", "/", "unfav", ";", "}", ""]
    span = locate(text, _token_offsets(text, tokens)[tokens.index("unary")])
    assert (span.line, span.column) == (3, 3)
    # a string keeps its quotes, so its first character tells its kind
    assert tokenize('value="a b" 12 x') == ['value', '=', '"a b"', '12', 'x', '']


@pytest.mark.parametrize("name", ["fb_clean image", *sorted(p.name for p in FIX.iterdir())])
def test_every_token_is_its_own_text(name):
    text = next(text for doc, text, _ in _fixture_parsers() if doc == name)
    tokens = tokenize(text)
    assert len(_token_offsets(text, tokens)) == len(tokens)


@pytest.mark.parametrize("text", ["a b", "a b  \n", "a b # note", "a b # note\n", "", " ", "# x"],
                         ids=["token", "blank", "comment", "comment and newline", "empty",
                              "only a blank", "only a comment"])
def test_one_eof_token_however_the_text_ends(text):
    tokens = tokenize(text)
    assert tokens.count("") == 1 and tokens[-1] == ""
    assert tokens[:-1] == text.split("#")[0].split()


@pytest.mark.parametrize("name, count", [
    ("facebook.dcp", 318), ("full.dca", 772), ("simplified.dca", 678), ("photo1.dcq", 51),
    ("fb_all.dct", 555),
])
def test_fixture_token_counts(name, count):
    assert len(tokenize((FIX / name).read_text(encoding="utf-8"))) == count


def test_bad_character_is_the_first_in_the_text():
    with pytest.raises(ParseError) as err:
        tokenize("a ² @", file="f")
    assert str(err.value) == "f:1:3: unexpected character '²'"
    # inside a comment or a string the same character is no error
    assert tokenize('# ²\n"²"') == ['"²"', ""]


_PUNCT = "{}()[]=,;:/+"
_ASCII_DIGITS = "0123456789"
_IDENT_FIRST = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_?"


def _scan(text, file):
    """``tokenize`` written out one character at a time, as the grammar
    describes the lexer: the token list, or the ParseError of the first
    character that starts no token."""
    tokens, i, n = [], 0, len(text)
    while True:
        while i < n and text[i] in " \t\r\n#":
            if text[i] == "#":
                while i < n and text[i] != "\n":
                    i += 1
            else:
                i += 1
        if i == n:
            return tokens + [""]
        j = i + 1
        if text[i] in _IDENT_FIRST:
            while j < n and (text[j] in _IDENT_FIRST or text[j] in _ASCII_DIGITS or text[j] == "-"):
                j += 1
        elif text[i] in _ASCII_DIGITS:
            while j < n and text[j] in _ASCII_DIGITS:
                j += 1
        elif text[i] == '"':
            while j < n and text[j] not in '"\n':
                j += 1
            if j == n or text[j] == "\n":
                j = i  # no closing quote on the line
            else:
                j += 1
        elif text[i] not in _PUNCT:
            j = i
        if j == i:
            lines = text[:i].split("\n")
            message = "unterminated string" if text[i] == '"' else f"unexpected character {text[i]!r}"
            raise ParseError(message, SourceSpan(file, len(lines), len(lines[-1]) + 1))
        tokens.append(text[i:j])
        i = j


# Blanks, comments, string quotes, number and identifier characters,
# punctuation, the starts of data blocks, and characters that start no token:
# a vertical tab and non-ASCII letters and digits.  The bad ones are rare, so
# that most strings lex and an error, when there is one, has tokens before it.
_LEX_PIECES = ([" ", "\t", "\r", "\n", "# c\n", "#", "# ²"] * 4 + ['"', '"ab"', '"x y'] * 2
               + list("0123456789-?_aZq") + list(_PUNCT) + ["\ndata ", "data "]
               + ["\x0b", "²", "٣", "é"])


def _lex_text(rng):
    """Random pieces; one time in two, data blocks that repeat one body after
    random heads, as a policy that gives its data one policy does."""
    def pieces(most):
        return "".join(rng.choice(_LEX_PIECES) for _ in range(rng.randrange(most)))

    if rng.random() < 0.5:
        return pieces(30)
    body = pieces(12)
    return pieces(6) + "".join(f"\ndata {pieces(3)}\n{body}" for _ in range(rng.randint(2, 4)))


def _equal_bodies(text):
    """Whether two data blocks of ``text`` have the same body: the same text
    after their first line and up to the next line that starts with ``data``."""
    bodies = [piece.partition("\n")[2] for piece in text.split("\ndata ")[1:]]
    return len(set(bodies)) < len(bodies)


def test_tokenize_agrees_with_a_character_scanner():
    rng = random.Random(18)
    outcomes, repeats = [], 0
    for _ in range(4000):
        text = _lex_text(rng)
        repeats += _equal_bodies(text)
        try:
            expected = _scan(text, "f")
        except ParseError as err:
            with pytest.raises(ParseError) as got:
                tokenize(text, file="f")
            assert (str(got.value), got.value.span, got.value.expected) == (
                str(err), err.span, err.expected), repr(text)
            outcomes.append("error")
        else:
            assert tokenize(text, file="f") == expected, repr(text)
            outcomes.append("tokens")
    # both outcomes are common, so neither half of the comparison is idle,
    # and so are texts whose repeated block bodies are lexed once
    assert min(outcomes.count("error"), outcomes.count("tokens")) > 1000
    assert repeats > 1000


_BLOCK = """  ow = alice;
  ds = {alice, bob};
  type = Photo;
  policy {
    purposes = {social-networking};
    can like = {alice, bob};  # data like this is shared
  }
}
"""


def _repeated_blocks():
    """A policy of eight data blocks with one body, the first at offset 0 and
    no header: the third copy with a stray character, one with a comment
    about data and a string, one with CRLF line ends and one with a tab after
    ``data``."""
    copies = [_BLOCK] * 8
    copies[2] = _BLOCK.replace("Photo", "Photo²")
    copies[4] = _BLOCK.replace("  ow", '  # data photo9 {\n  "a b" ow')
    copies[5] = _BLOCK.replace("\n", "\r\n")
    heads = [f"data photo{k} {{" for k in range(8)]
    heads[6] = "data\tphoto6 {"
    return "".join(f"{head}\n{body}" for head, body in zip(heads, copies))


def _lex_outcome(lex, text):
    try:
        return lex(text, "f")
    except ParseError as err:
        return str(err), err.span, err.expected


def test_tokenize_agrees_with_a_character_scanner_on_repeated_blocks():
    """Substitutions, deletions and insertions in a policy of repeated blocks,
    with and without its stray character, among them cuts that make or break
    a ``data`` line start."""
    rng = random.Random(21)
    bases = [_repeated_blocks(), _repeated_blocks().replace("²", "")]
    assert all(_equal_bodies(base) for base in bases)
    alphabet = ["", " ", "\n", "\r\n", "\t", "#", '"', "²", "}", "data ", "\ndata ", "x"]
    outcomes, repeats = [], 0
    for _ in range(3000):
        text = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text))
            text = text[:i] + rng.choice(alphabet) + text[i + rng.randint(0, 2):]
        repeats += _equal_bodies(text)
        got = _lex_outcome(tokenize, text)
        assert got == _lex_outcome(_scan, text), repr(text)
        outcomes.append(isinstance(got, list))
    assert min(outcomes.count(True), outcomes.count(False)) > 1000
    assert repeats > 2000


def test_equal_block_bodies_share_their_tokens():
    text = "actions { }\n" + "".join(f"data d{k} {{\n{_BLOCK}" for k in range(3))
    text += "data vault {\n" + _BLOCK.replace("bob", "carol")
    tokens = tokenize(text)
    assert tokens == _scan(text, "f")
    starts = [i for i, tok in enumerate(tokens) if tok == "data"] + [len(tokens) - 1]
    runs = [tokens[start + 3:end] for start, end in zip(starts, starts[1:])]  # after "data d0 {"
    assert runs[0] == runs[1] == runs[2] != runs[3]
    assert "social-networking" in runs[0]
    assert all(a is b is c for a, b, c in zip(*runs[:3]))


def test_parse_error_is_located():
    with pytest.raises(ParseError) as err:
        parse_policy("actions {\n  unary fav unfav;\n}", file="bad.dcp")
    assert "bad.dcp:2" in str(err.value)
    assert "'/'" in str(err.value) or "/" in str(err.value)


def test_unterminated_string_rejected():
    with pytest.raises(ParseError):
        tokenize('trace { own(value="oops); }')


def test_trace_requires_increasing_timestamps():
    model = random_model(random.Random(0))
    ident = sorted(model.data)[0]
    dt = model.data[ident]
    text = (
        "trace {\n"
        f"  own(t=2, or={dt.ow}, dt={ident}, value=\"v\");\n"
        f"  store(t=2, dt={ident});\n"
        "}"
    )
    with pytest.raises(ParseError) as err:
        parse_trace(text, model)
    assert "strictly increasing" in str(err.value)


def test_unknown_event_name_rejected():
    model = random_model(random.Random(0))
    ident = sorted(model.data)[0]
    with pytest.raises(ParseError) as err:
        parse_trace(f"trace {{ frobnicate(t=1, or=u1, dt={ident}); }}", model)
    assert "frobnicate" in str(err.value)


@pytest.mark.parametrize("parse, document, where", [
    (parse_has_query, "HAS_sp(X{ow=alice, ds={alice bob}, id=d1})", "1:30: found 'bob' (expected })"),
    (parse_arch_trace, "archtrace { own(t=1 user=alice); }", "1:21: found 'user' (expected ))"),
])
def test_list_items_are_separated_by_commas(parse, document, where):
    sets = (ActivitySets(),) if parse is parse_arch_trace else ()  # an arch trace's declarations
    with pytest.raises(ParseError) as err:
        parse(document, *sets, file="f")
    assert str(err.value).startswith(f"f:{where}")


def test_end_of_input_after_a_trailing_comment_is_located_at_its_end():
    with pytest.raises(ParseError) as err:
        parse_policy("actions {  # open", file="f.dcp")
    assert str(err.value).startswith("f.dcp:1:18: found end of input")


def test_unknown_arch_trace_field_is_located_at_its_equals_sign():
    with pytest.raises(ParseError) as err:
        parse_facebook_arch_trace("archtrace {\n  own(t=1, bogus=2);\n}", file="f.dct")
    assert str(err.value).startswith("f.dct:2:17: unknown event field 'bogus'")


@pytest.mark.parametrize("parse, document, where", [
    (parse_architecture, "architecture {\n  perms {\n    bogus x;\n  }\n}",
     "3:5: unknown perms field 'bogus'"),
    (parse_architecture, "architecture {\n  Bogus[a](x);\n}", "2:3: unknown activity 'Bogus'"),
    (parse_architecture, "architecture {\n  Own[a](Y{ow=a});\n}", "2:10: unknown term head 'Y'"),
    (parse_has_query, "HAS_maybe[a](X{ow=a, ds={a}, id=d1}, 1)",
     "1:1: unknown HAS form 'HAS_maybe'"),
    (parse_policy, "actions { unary fav/unfav; }\ndata d1 { ow = a; ds = {a}; type = Notes;\n"
     "  policy { purposes = {p}; delete = {man:1}; where = {sploc}; how = {rot13}; } }",
     "3:70: unknown storage form 'rot13'"),
], ids=["perms field", "activity", "term head", "HAS form", "storage form"])
def test_unknown_word_is_located_at_the_word(parse, document, where):
    with pytest.raises(ParseError) as err:
        parse(document, file="f")
    assert str(err.value).startswith(f"f:{where}")


def parse_facebook_trace(text, file):
    model = parse_policy((FIX / "facebook.dcp").read_text(encoding="utf-8"))
    return parse_trace(text, model, file=file)


ARCH_HEAD = "architecture {\n  actions { unary like/unlike; binary post/unpost; }\n"
DATUM = ("data d1 { ow = a; ds = {a}; type = Notes;\n"
         "  policy { purposes = {p}; delete = {man:1}; where = {sploc}; how = {plain}; } }\n")


@pytest.mark.parametrize("parse, document, where", [
    (parse_facebook_trace, "trace {\n  store(t=1);\n}", "2:3: event 'store' names no datum"),
    (parse_facebook_trace, "trace {\n  addfriends(t=1, or=alice, dt=photo1);\n}",
     "2:3: 'addfriends' requires or=... and tar=..."),
    (parse_facebook_trace, "trace {\n  like(t=1, dt=photo1);\n}",
     "2:3: event requires a performer (or=...)"),
    (parse_facebook_trace, "trace {\n  post(t=1, or=alice, dt=photo1);\n}",
     "2:3: binary event requires a target (tar=...)"),
    (parse_facebook_trace, "trace {\n  like(t=1, or=alice, tar=bob, dt=photo1);\n}",
     "2:3: unary event does not take a target"),
    (parse_facebook_trace, "trace {\n  store(dt=photo1);\n}",
     "2:3: event 'store' carries no timestamp"),
    (parse_policy, "actions { unary fav/unfav; }\n" + DATUM + DATUM, "4:6: duplicate datum 'd1'"),
    (parse_policy, "", "1:1: empty document"),
    (parse_has_query, "HAS_sp(enc(X{ow=a, ds={a}, id=d1}, key[sp]))",
     "1:8: possession queries take a plain variable"),
    (parse_facebook_arch_trace, 'archtrace {\n  own(t="1 2");\n}',
     "2:9: found '1 2' (expected number)"),
    (parse_has_query, "HAS_sp(X{ow=42, ds={a}, id=d1})", "1:13: found '42' (expected owner)"),
    (parse_architecture, "architecture {\n  Own[a](X{ow=a, ds={a}, id=d1});\n",
     "3:1: found end of input (expected activity)"),
    (parse_has_query, 'HAS_sp(X{ow=a, ds={a}, id=d1}) "more"',
     "1:32: trailing input 'more' (expected end of input)"),
    (parse_policy, "actions { unary fav/unfav; }\ndata d1 {\n  ow = a;\n  ds = {a};\n  ow = b;\n}\n",
     "5:3: repeated datum field 'ow'"),
    (parse_policy, "actions { unary fav/unfav; }\ndata d1 { ow = a; ds = {a}; type = Notes;\n"
     "  policy { purposes = {p}; purposes = {q}; } }\n", "3:28: repeated policy field 'purposes'"),
    (parse_policy, "actions { unary fav/unfav; }\ndata d1 { ow = a; ds = {a}; type = Notes;\n"
     "  policy { can fav = {a, b}; can fav = {b}; } }\n", "3:30: repeated permission 'can fav'"),
    (parse_architecture, "architecture {\n  perms {\n    has by fav a = {a};\n    has by fav a = {b};\n"
     "  }\n}\n", "4:5: repeated permission 'has by fav a'"),
    (parse_architecture, "architecture {\n  perms { has group = {a}; has group = {}; }\n}\n",
     "2:28: repeated permission 'has group'"),
    (parse_facebook_trace, "trace {\n  like(t=2, or=alice, or=mallory, dt=photo1);\n}",
     "2:23: repeated event field 'or'"),
    (parse_facebook_arch_trace, "archtrace {\n  receive(t=1, user=alice, user=bob,"
     " var=X{ow=alice, ds={alice}, id=photo1});\n}", "2:28: repeated event field 'user'"),
    (parse_has_query, "HAS_sp(X{ow=alice, ow=bob, ds={alice}, id=d1})",
     "1:20: repeated variable field 'ow'"),
    (parse_facebook_trace, 'trace {\n  like(t=2, or=alice, dt=photo1, value="zzz", purposes={ads});\n}',
     "2:3: event 'like' does not take value=..."),
    (parse_facebook_trace, "trace {\n  store(t=1, dt=photo1, purposes={ads});\n}",
     "2:3: event 'store' does not take purposes=..."),
    (parse_facebook_trace, "trace {\n  addfriends(t=1, or=alice, tar=bob, dt=photo1, value=\"v\");\n}",
     "2:3: event 'addfriends' does not take value=..."),
    (parse_facebook_arch_trace, "archtrace {\n  possess(t=1, user=bob, var=X{ow=alice, ds={alice}, id=photo1});\n}",
     "2:3: event 'possess' does not take user=..."),
    (parse_facebook_arch_trace, "archtrace {\n  delete(t=1, user=sp, var=X{ow=alice, ds={alice}, id=photo1});\n}",
     "2:3: event 'delete' does not take user=..."),
    (parse_facebook_arch_trace, "archtrace {\n  like(t=1, user=alice, var=X{ow=alice, ds={alice}, id=photo1},"
     " actions={a});\n}", "2:3: event 'like' does not take actions=..."),
    (parse_facebook_arch_trace, "archtrace {\n  grouplike(t=1, user=alice, tar=bob, value=\"v\");\n}",
     "2:3: event 'grouplike' does not take value=..."),
    (parse_policy, "actions { unary fav/unfav; }\nalias a/b = groupact() + grouphas;\n",
     "2:22: found ')' (expected action name)"),
    (parse_policy, "actions { unary fav/unfav; }\nalias a/b = groupact(fav,) + grouphas;\n",
     "2:26: found ')' (expected action name)"),
    (parse_policy, "actions { unary fav/unfav; }\ndata d1 { ow = a; ds = {a}; type = Notes;\n"
     "  policy { delete = {}; } }\n", "3:22: found '}' (expected deletion mode)"),
    (parse_policy, "actions { unary fav/unfav; }\ndata d1 { ow = a; ds = {a}; type = Notes;\n"
     "  policy { how = {}; } }\n", "3:19: found '}' (expected storage form)"),
    (parse_policy, "actions { unary fav/unfav; }\ndata d1 { ow = a; ds = {a}; type = Notes;\n"
     "  policy { how = {plain,}; } }\n", "3:25: found '}' (expected storage form)"),
    (parse_architecture, ARCH_HEAD + "  Act1[?i](fav, X{ow=a, ds={a}, id=d1});\n}\n",
     "3:12: action 'fav' is not declared for Act1"),
    (parse_architecture, ARCH_HEAD + "  UnAct2[?i, ?j](unfav, X{ow=a, ds={a}, id=d1});\n}\n",
     "3:18: action 'unfav' is not declared for UnAct2"),
    (parse_architecture, ARCH_HEAD + "  GroupAct[?i, ?j](fav);\n}\n",
     "3:20: action 'fav' is not declared for GroupAct"),
    (parse_architecture, ARCH_HEAD + "  AddFriends[?i, ?j](like, unlike);\n}\n",
     "3:28: action 'unlike' is not declared for AddFriends"),
    (parse_architecture, ARCH_HEAD + "  Act1[?i](post, X{ow=a, ds={a}, id=d1});\n}\n",
     "3:12: action 'post' is not declared for Act1"),
    (parse_architecture, ARCH_HEAD + "  perms {\n    can unlike = {a};\n    has by unlike a = {b};\n"
     "  }\n}\n", "5:12: has-by group for 'unlike', which is not a declared base action"),
], ids=["no datum", "alias without tar", "no performer", "binary without tar",
        "unary with tar", "no timestamp", "duplicate datum", "empty document", "query term",
        "found a string", "found a number", "found end of input", "trailing input",
        "repeated datum field", "repeated policy field", "repeated can line",
        "repeated has-by line", "repeated has-group line", "repeated trace event field",
        "repeated arch-trace event field", "repeated variable field", "value on a like",
        "purposes on a store", "value on an alias event", "user on a possess", "user on a delete",
        "actions on an action", "value on a group event", "alias of no action",
        "alias with a trailing comma", "no deletion mode", "no storage form",
        "storage forms with a trailing comma", "undeclared unary action",
        "undeclared binary un-action", "undeclared group action", "friends of an un-action",
        "action of the other family", "has by an un-action"])
def test_rejected_document_is_located(parse, document, where):
    with pytest.raises(ParseError) as err:
        parse(document, file="f")
    assert str(err.value).startswith(f"f:{where}")


@pytest.mark.parametrize("block, message", [
    ("unary fav/unfav; unary fav/unfav2;",
     "action 'fav' declared more than once; two events are named 'groupfav';"
     " two events are named 'ungroupfav'; two events are named 'fav'"),
    ("unary fav/unfav; unary pin/unfav;",
     "action 'unfav' declared more than once; two events are named 'unfav'"),
    ("unary fav/fav;", "action 'fav' declared more than once; two events are named 'fav'"),
    ("unary fav/unfav; binary fav/unlink;",
     "action 'fav' declared more than once; two events are named 'groupfav';"
     " two events are named 'ungroupfav'; two events are named 'fav'"),
    ("unary use/unuse;",
     "action 'use' collides with a predefined action; two events are named 'use'"),
    ("unary groupact/unx;", "action 'groupact' collides with a predefined action"),
    ("binary link/unlink; unary fav/unlink;",
     "action 'unlink' declared more than once; two events are named 'unlink'"),
], ids=["base twice", "un-action twice", "action is its own un-action", "base in both arities",
        "predefined name", "predefined group name", "un-action in both arities"])
def test_malformed_actions_block_message(block, message):
    """The full text of each rejected declaration list, reported for the whole
    document."""
    with pytest.raises(ParseError) as err:
        parse_policy(f"actions {{ {block} }}\n", file="f")
    assert str(err.value) == f"f:1:1: {message}"


def _fixture_parsers():
    """(name, text, parser) for every fixture and for the architecture image of
    ``fb_clean.dct``."""
    model = parse_policy((FIX / "facebook.dcp").read_text(encoding="utf-8"))
    clean = parse_trace((FIX / "fb_clean.dct").read_text(encoding="utf-8"), model)
    docs = [("fb_clean image", serialize_arch_trace(image_trace(clean, MappingContext(model))),
             lambda text: parse_arch_trace(text, model.sets))]
    for path in sorted(FIX.iterdir()):
        parse = {".dcp": parse_policy, ".dca": parse_architecture, ".dcq": parse_has_query,
                 ".dct": lambda text: parse_trace(text, model)}[path.suffix]
        docs.append((path.name, path.read_text(encoding="utf-8"), parse))
    return docs


def test_mutated_documents_parse_or_raise_parse_error():
    """Single-character substitutions, deletions and insertions anywhere in the
    fixtures either parse or raise ParseError, never another exception."""
    rng = random.Random(0)
    docs = _fixture_parsers()
    alphabet = ["", " ", "\n", "\t", *'{}();,="#a1?-@²x']
    crashes = []
    for _ in range(2000):
        name, text, parse = rng.choice(docs)
        i = rng.randrange(len(text))
        ch, j = rng.choice(alphabet), i + rng.randint(0, 1)  # j == i inserts
        try:
            parse(text[:i] + ch + text[j:])
        except ParseError:
            pass
        except Exception as err:  # the CLI would print a traceback
            crashes.append(f"{name}[{i}:{j}] = {ch!r}: {type(err).__name__}: {err}")
    assert crashes == []


def test_sniff_kind():
    assert sniff_kind("actions { }") == "policy"
    assert sniff_kind("trace { }") == "trace"
    assert sniff_kind("architecture {}") == "architecture"
    assert sniff_kind("archtrace { }") == "arch-trace"
    assert sniff_kind("HAS_sp(X{ow=a, ds={a}, id=d})") == "query"
    # only the first token is read; the parser reports what follows
    assert sniff_kind("# note\narchtrace { ² }") == "arch-trace"


# --- policy round trips -----------------------------------------------------


def test_policy_round_trip_generated():
    for seed in range(30):
        model = random_model(random.Random(seed))
        text = serialize_policy(model)
        reparsed = parse_policy(text)
        assert reparsed == model, f"seed {seed}"
        assert serialize_policy(reparsed) == text


def test_policy_round_trip_fixture():
    text = open(f"{FIX}/facebook.dcp").read()
    model = parse_policy(text)
    canonical = serialize_policy(model)
    assert parse_policy(canonical) == model
    assert serialize_policy(parse_policy(canonical)) == canonical


POLICY = ("policy { purposes = {p, q}; delete = {man:1}; where = {sploc}; how = {plain};"
          " can fav = {a, b}; has by fav a = {a}; }")


def test_identical_policy_blocks_share_one_policy():
    """Token-for-token copies of a policy block share one ``Policy``, and the
    sharing changes no result: each datum's policy is the one its block
    parses to alone, near-copies stay apart, the canonical text is the same,
    and an error in a later copy is located in that copy."""
    header = "actions { unary fav/unfav; }\n"
    blocks = {
        "d1": POLICY,
        "d2": POLICY.replace(";", " ;\n  # the same tokens, laid out differently\n"),
        "d3": POLICY.replace("{p, q}", "{p, r}"),  # one set member changed
        "d4": POLICY,
        "d5": POLICY.replace(" }", " has group = {a}; }"),  # one extra permission line
        "d6": "policy { purposes = {p}; where = {clientloc}; how = {enc(clkey)}; }",
        "d7": POLICY,  # a copy after a different block
    }
    data = {d: f"data {d} {{ ow = a; ds = {{a}}; type = Notes; {block} }}\n"
            for d, block in blocks.items()}
    model = parse_policy(header + "".join(data.values()))
    alone = {d: parse_policy(header + datum).policies[d] for d, datum in data.items()}
    assert model.policies == alone
    shared = model.policies["d1"]
    assert all((model.policies[d] is shared) == (d in ("d1", "d2", "d4", "d7")) for d in data)
    assert len({id(p) for p in model.policies.values()}) == 4
    assert serialize_policy(model) == serialize_policy(
        PolicyModel(sets=model.sets, data=model.data, policies=alone))

    broken = POLICY.replace("{a, b}", "{a b}")
    text = header + "".join(f"data c{k} {{ ow = a; ds = {{a}}; type = Notes;\n  {block} }}\n"
                            for k, block in enumerate((POLICY, POLICY, broken, POLICY)))
    with pytest.raises(ParseError) as err:
        parse_policy(text, file="f")
    assert err.value.span == locate(text, text.index("{a b}") + 3, "f") == SourceSpan("f", 7, 94)
    assert err.value.expected == {"}"}
    assert str(err.value) == "f:7:94: found 'b' (expected })"


# --- trace round trips ------------------------------------------------------


def test_trace_round_trip_generated():
    for seed in range(30):
        rng = random.Random(seed)
        model = random_model(rng)
        trace = compliant_trace(model, rng)
        text = serialize_trace(trace, model)
        reparsed = parse_trace(text, model)
        assert reparsed == trace, f"seed {seed}"
        assert serialize_trace(reparsed, model) == text


def test_alias_trace_round_trip():
    text = open(f"{FIX}/facebook.dcp").read()
    model = parse_policy(text)
    doc = (
        "trace {\n"
        '  own(t=1, or=alice, dt=photo1, value="pic");\n'
        "  addfriends(t=2, or=alice, tar=bob, dt=photo1);\n"
        "  unfriends(t=3, or=alice, tar=bob, dt=photo1);\n"
        "}\n"
    )
    events = parse_trace(doc, model)
    # each alias event expands to one group event per covered action + has-group
    assert len(events) == 1 + 2 * (len(model.alias.actions) + 1)
    assert serialize_trace(events, model) == doc
    # followed by another event than its has-group event, a run of group
    # events is no alias event
    partial = events[1 : len(model.alias.actions) + 1] + events[-1:]
    assert serialize_trace(partial, model).count("(t=2, or=alice, tar=bob, dt=photo1)") == \
        len(model.alias.actions)


def test_trace_round_trip_fixtures():
    model = parse_policy(open(f"{FIX}/facebook.dcp").read())
    for name in ("fb_all", "fb_clean", "fb_badpurpose", "fb_corr"):
        path = f"{FIX}/{name}.dct"
        events = parse_trace(open(path).read(), model, file=path)
        canonical = serialize_trace(events, model)
        assert parse_trace(canonical, model) == events, name


def _models():
    """(label, model): the facebook model and ``random_model`` seeds 0-99."""
    yield "facebook", parse_policy((FIX / "facebook.dcp").read_text(encoding="utf-8"))
    for seed in range(100):
        yield f"seed {seed}", random_model(random.Random(seed))


def test_every_policy_event_name_round_trips():
    """Each inventory template, written as a one-event trace, parses to its
    kind and action and prints its name back."""
    for label, model in _models():
        ident = sorted(model.data)[0]
        for template in possible_events(model.sets):
            tar = ", tar=u2" if template.binary else ""
            text = f"trace {{\n  {template.name}(t=1, or=u1{tar}, dt={ident});\n}}\n"
            events = parse_trace(text, model)
            assert [(e.kind, e.action) for e in events] == [(template.kind, template.action)], \
                (label, template)
            assert serialize_trace(events, model) == text, (label, template)


# --- architecture round trips -----------------------------------------------


SAMPLE_ARCH = Architecture(
    activities=frozenset(
        {
            Own("alice", X),
            Possess(enc(X, KeyVar(SP))),
            Possess(KeyVar(SP)),
            PossessOneOf(frozenset({X, KeyVar("alice")})),
            GroupAct("?i", "?tar", "fav"),
            AddFriends("?i", "?tar", ("fav", "link")),
            DeleteReq("?i", X),
            Delete(X, 30),
            Act2("?i", "?j", "link", X),
        }
    ),
    perms=Perms(
        can={"fav": frozenset({"alice", "bob"})},
        by={"fav": {"alice": frozenset({"bob"})}},
        been={"link": {"bob": frozenset({"carol"})}},
        group=frozenset({"bob"}),
    ),
    sets=SETS,
)


def test_architecture_round_trip_sample():
    text = serialize_architecture(SAMPLE_ARCH)
    reparsed = parse_architecture(text)
    assert reparsed == SAMPLE_ARCH
    assert serialize_architecture(reparsed) == text


def test_architecture_round_trip_fixtures():
    for name in ("full", "simplified"):
        path = f"{FIX}/{name}.dca"
        pa = parse_architecture(open(path).read(), file=path)
        canonical = serialize_architecture(pa)
        assert parse_architecture(canonical) == pa, name


def test_pairs_alone_round_trip():
    """An architecture that declares pairs and nothing else prints its actions
    block, which must come first."""
    pa = Architecture(sets=SETS)
    text = serialize_architecture(pa)
    assert text == ("architecture {\n  actions {\n    unary fav/unfav;\n    binary link/unlink;\n"
                    "  }\n}\n")
    assert parse_architecture(text) == pa and sniff_kind(text) == "architecture"
    with pytest.raises(ParseError) as err:
        parse_architecture("architecture {\n  Possess(key[sp]);\n  actions { }\n}\n", file="f")
    assert str(err.value) == "f:3:3: unknown activity 'actions'"


def test_empty_architecture_round_trip():
    pa = parse_architecture("architecture {}")
    assert pa.activities == frozenset() and pa.perms == Perms()
    assert serialize_architecture(pa) == "architecture {}\n"


POLICY_HEADER = "actions { unary fav/unfav; binary link/unlink; }\n"
POLICY_DATUM = ("data d1 { ow = a; ds = {a, b}; type = Notes; policy {\n"
                "  purposes = {p}; delete = {man:1}; where = {sploc}; how = {plain};\n%s} }\n")


@pytest.mark.parametrize("parse, serialize, empty, kept", [
    (parse_architecture, serialize_architecture, "architecture {\n  perms {\n%s  }\n}\n", ""),
    (parse_architecture, serialize_architecture,
     "architecture {\n  " + POLICY_HEADER + "  perms {\n%s  }\n}\n", "has by fav b = {a};\n"),
    (parse_policy, serialize_policy, POLICY_HEADER + POLICY_DATUM, ""),
    (parse_policy, serialize_policy, POLICY_HEADER + POLICY_DATUM, "can link = {a};\n"),
], ids=["perms block", "perms block with a grant", "policy block", "policy block with a grant"])
def test_empty_grant_reads_as_absent(parse, serialize, empty, kept):
    """``can``, ``has by`` and ``has been`` lines with an empty set parse as
    if absent, so printing is a fixpoint and no empty ``perms`` block prints."""
    lines = "can fav = {};\nhas by fav a = {};\nhas been link b = {};\nhas group = {};\n"
    parsed = parse(empty % (lines + kept))
    assert parsed == parse(empty % kept)
    text = serialize(parsed)
    assert parse(text) == parsed and serialize(parse(text)) == text
    if parse is parse_architecture and not kept:
        assert text == "architecture {}\n"
    assert serialize_architecture(Architecture(perms=Perms(can={"fav": frozenset()}))) == \
        "architecture {}\n"


def test_pattern_ds_round_trip():
    pa = Architecture(activities=frozenset({Possess(Var(ow="?i", ds="?s", ident="?x"))}))
    assert parse_architecture(serialize_architecture(pa)) == pa


@pytest.mark.parametrize("document", [
    "actions { unary fav/unfav; }\n"
    "data d1 { ow = alice; ds = {alice}; type = Notes; policy {\n"
    "  purposes = {billing}; delete = {man:1}; where = {sploc}; how = {plain};\n"
    "  has bogus fav bob = {carol};\n"
    "} }",
    "architecture {\n  perms {\n  has bogus fav bob = {carol};\n  }\n}",
], ids=["policy-block", "perms-block"])
def test_unknown_has_table_rejected(document):
    parse = parse_policy if document.startswith("actions") else parse_architecture
    with pytest.raises(ParseError) as err:
        parse(document, file="bad")
    assert "unknown has table 'bogus'" in str(err.value)
    assert err.value.expected == frozenset({"by", "been", "group"})


def test_inconsistent_architecture_rejected():
    text = (
        "architecture {\n"
        "  Own[alice](X{ow=alice, ds={alice}, id=d1});\n"
        "  Own[bob](X{ow=alice, ds={alice}, id=d1});\n"
        "}"
    )
    with pytest.raises(ParseError) as err:
        parse_architecture(text)
    assert "two users" in str(err.value)


# --- architecture-trace round trips -----------------------------------------


ARCH_TRACE = [
    ArchEvent("own", 1, user="alice", term=X, value="v"),
    ArchEvent("possess", 2, user=SP, term=X, value="v"),
    ArchEvent("groupact", 3, user="alice", tar="bob", action="fav"),
    ArchEvent("addfriends", 4, user="alice", tar="bob", actions=("fav", "link")),
    ArchEvent("act1", 5, user="bob", action="fav", term=X, value="v"),
    ArchEvent("act2", 6, user="alice", tar="bob", action="link", term=X, value="v"),
    ArchEvent("deletereq", 7, user="bob", term=X),
    ArchEvent("delete", 8, user=SP, term=X),
]


def test_arch_trace_round_trip():
    text = serialize_arch_trace(ARCH_TRACE)
    reparsed = parse_arch_trace(text, SETS)
    # The possess event comes back with the provider filled in; a delete
    # carries no user, so it prints and comes back without one.
    normalized = [e for e in ARCH_TRACE]
    normalized[7] = ArchEvent("delete", 8, user=None, term=X)
    assert reparsed == normalized
    assert serialize_arch_trace(reparsed) == text


def test_arch_trace_image_round_trips():
    model = parse_policy((FIX / "facebook.dcp").read_text(encoding="utf-8"))
    clean = parse_trace((FIX / "fb_clean.dct").read_text(encoding="utf-8"), model)
    text = serialize_arch_trace(image_trace(clean, MappingContext(model)))
    assert serialize_arch_trace(parse_arch_trace(text, model.sets)) == text


def test_every_arch_event_name_round_trips():
    """Each action-free activity kind, each group and ungroup event of a base
    action and each declared action, written as a one-event arch trace, parses
    to its kind and action and prints its name back."""
    free = [(schema.kind, schema.kind, None)
            for schema in ACTIVITIES.values() if "action" not in schema.args]
    for label, model in _models():
        named = [(t.name, t.kind, t.action)
                 for t in possible_events(model.sets) if t.action is not None]
        for name, kind, action in dict.fromkeys(free + named):  # two kinds are possess
            user = "" if kind in ("possess", "delete") else ", user=u1"  # the provider's
            tar = ", tar=u2" if kind in ("groupact", "ungroupact", "act2", "unact2") else ""
            text = f"archtrace {{\n  {name}(t=1{user}{tar});\n}}\n"
            events = parse_arch_trace(text, model.sets)
            assert [(e.kind, e.action) for e in events] == [(kind, action)], (label, name)
            assert serialize_arch_trace(events) == text, (label, name)


def nested(depth: int) -> str:
    """A term with ``depth`` function applications nested in one another."""
    return "enc(" * depth + "X{ow=alice, ds={alice}, id=d1}" + ", key[sp])" * depth


@pytest.mark.parametrize("parse, head, tail", [
    (parse_architecture, "architecture {\n  Possess(", ");\n}\n"),
    (parse_has_query, "HAS_sp(", ")\n"),
    (parse_facebook_arch_trace, "archtrace {\n  possess(t=1, var=", ");\n}\n"),
], ids=["architecture", "query", "arch trace"])
def test_term_nesting_is_limited(parse, head, tail):
    """A term nests up to MAX_TERM_DEPTH function applications; one more is
    an error at the head that goes past the limit, not a RecursionError."""
    text = head + nested(MAX_TERM_DEPTH) + tail
    if parse is parse_has_query:
        with pytest.raises(ParseError, match="take a plain variable"):
            parse(text)
    else:
        doc = parse(text)
        printed = serialize_architecture(doc) if parse is parse_architecture else serialize_arch_trace(doc)
        assert nested(MAX_TERM_DEPTH) in printed
    with pytest.raises(ParseError) as err:
        parse(head + nested(MAX_TERM_DEPTH + 1) + tail, file="f")
    column = len(head.rpartition("\n")[2]) + 1 + 4 * MAX_TERM_DEPTH
    line = head.count("\n") + 1
    assert str(err.value) == (f"f:{line}:{column}: term nests more than {MAX_TERM_DEPTH}"
                              " function applications")


@pytest.mark.parametrize("name", ["groupbogus", "groupunlike", "group"])
def test_arch_trace_group_names_must_name_a_base_action(name):
    sets = parse_policy((FIX / "facebook.dcp").read_text(encoding="utf-8")).sets
    text = f"archtrace {{\n  {name}(t=1, user=alice, tar=bob);\n}}"
    with pytest.raises(ParseError) as err:
        parse_arch_trace(text, sets, file="f.dct")
    assert str(err.value) == f"f.dct:2:3: unknown event {name!r}"


@pytest.mark.parametrize("name", ["group", "ungroup"])
def test_arch_trace_group_names_need_an_action(name):
    with pytest.raises(ParseError) as err:
        parse_facebook_arch_trace(f"archtrace {{\n  {name}(t=1, user=alice, tar=bob);\n}}",
                                  file="f.dct")
    assert str(err.value) == f"f.dct:2:3: unknown event {name!r}"


def test_arch_trace_binary_event_requires_a_target():
    sets = parse_policy((FIX / "facebook.dcp").read_text(encoding="utf-8")).sets
    text = "archtrace {\n  post(t=1, user=alice, var=X{ow=alice, ds={alice}, id=photo1});\n}"
    with pytest.raises(ParseError) as err:
        parse_arch_trace(text, sets, file="bad.dct")
    assert "bad.dct:2" in str(err.value) and "requires a target" in str(err.value)


def test_arch_trace_timestamps_may_repeat_but_not_decrease():
    text = (
        "archtrace {\n"
        "  own(t=2, user=alice, var=X{ow=alice, ds={alice}, id=d1}, value=\"v\");\n"
        "  own(t=1, user=alice, var=X{ow=alice, ds={alice}, id=d1}, value=\"v\");\n"
        "}"
    )
    with pytest.raises(ParseError) as err:
        parse_arch_trace(text, ActivitySets())
    assert "non-decreasing" in str(err.value)


# --- query round trips ------------------------------------------------------


QUERIES = [
    HasSp(X),
    Has("alice", X, 3),
    HasNot("bob", X, 5),
    HasNever("carol", X),
    And((Has("alice", X, 3), HasNever(SP, X))),
]


@pytest.mark.parametrize("prop", QUERIES, ids=lambda p: type(p).__name__)
def test_query_round_trip(prop):
    text = serialize_query(prop)
    assert parse_has_query(text) == prop
    assert serialize_query(parse_has_query(text)) == text


def test_fields_come_in_any_order_with_a_trailing_comma():
    """As the grammar says: a variable's and an event's fields in any order,
    a trailing comma allowed, and the printer's order on the way back."""
    prop = parse_has_query("HAS_sp(X{id=d1, ds={a}, ow=a,})")
    assert prop == HasSp(Var(ow="a", ds=frozenset({"a"}), ident="d1"))
    assert serialize_query(prop) == "HAS_sp(X{ow=a, ds={a}, id=d1})"
    events = parse_arch_trace("archtrace { own(var=X{id=d1, ow=a, ds={a}}, user=a, t=1,); }",
                              ActivitySets())
    assert serialize_arch_trace(events) == "archtrace {\n  own(t=1, user=a, var=X{ow=a, ds={a}, id=d1});\n}\n"
