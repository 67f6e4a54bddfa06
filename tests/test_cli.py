"""Exit-code contract and output shape of the command-line interface,
exercised against the bundled service fixtures."""

import argparse
import ast
import inspect
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from datactl import cli
from datactl.architecture import Architecture, GroupAct, Own, Var
from datactl.cli import _concrete_users, build_parser, main
from datactl.dsl import (
    parse_arch_trace,
    parse_has_query,
    parse_policy,
    parse_trace,
    serialize_arch_trace,
)
from datactl.logic import And
from datactl.mapping import MappingContext, image_trace
from datactl.model import SP, Perms

from test_mapping import FAV_DEFAV_POLICY, FAV_DEFAV_TRACE

FIX = Path(__file__).resolve().parent.parent / "fixtures" / "facebook"
DCP = f"{FIX}/facebook.dcp"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_in_subprocess(launcher, *argv, **env) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter started with the ``launcher`` arguments
    (such as ``-m datactl.cli``), with ``env`` added to the environment."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), **env)
    return subprocess.run([sys.executable, *launcher, *argv],
                          env=env, capture_output=True, text=True, timeout=60)


def run_with_hash_seed(seed: str, *argv) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter whose string hashes use ``seed``."""
    return run_in_subprocess(("-m", "datactl.cli"), *argv, PYTHONHASHSEED=seed)


# --- validate ---------------------------------------------------------------


def test_validate_each_kind(capsys, tmp_path):
    for path in (DCP, f"{FIX}/full.dca", f"{FIX}/simplified.dca"):
        code, out, _ = run(capsys, "validate", path)
        assert code == 0 and "valid" in out

    code, out, _ = run(capsys, "validate", f"{FIX}/fb_clean.dct", "--policy", DCP)
    assert code == 0 and "valid trace" in out

    query = tmp_path / "q.dcq"
    query.write_text("HAS_sp(X{ow=alice, ds={alice, bob}, id=photo1})")
    code, out, _ = run(capsys, "validate", str(query))
    assert code == 0 and "valid query" in out


def test_validate_trace_without_policy_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", f"{FIX}/fb_clean.dct")
    assert code == 2 and "--policy" in err


def test_validate_broken_document(capsys, tmp_path):
    bad = tmp_path / "bad.dcp"
    bad.write_text("actions { unary fav unfav; }")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("digit", ["²", "٣"])
def test_validate_rejects_a_non_ascii_digit(capsys, tmp_path, digit):
    doc = tmp_path / "digit.dct"
    doc.write_text(f"archtrace {{ own(t={digit}, user=a); }}", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(doc), "--policy", DCP)
    assert (code, out) == (2, "")
    assert err == f"error: {doc}:1:19: unexpected character {digit!r}\n"


@pytest.mark.parametrize("name, text, where", [
    ("like.dct", 'trace {\n  like(t=2, or=alice, dt=photo1, value="zzz", purposes={ads});\n}\n',
     "2:3: event 'like' does not take value=..."),
    ("possess.dct", "archtrace {\n  possess(t=1, user=bob, var=X{ow=alice, ds={alice}, id=p});\n}\n",
     "2:3: event 'possess' does not take user=..."),
    ("deep.dca", "architecture {\n  Possess(" + "enc(" * 2000 + "\n",
     "2:411: term nests more than 100 function applications"),
    ("deep.dcq", "HAS_sp(" + "enc(" * 2000 + "\n", "1:408: term nests more than 100 function applications"),
    ("deep.dct", "archtrace {\n  possess(t=1, var=" + "enc(" * 2000 + "\n",
     "2:420: term nests more than 100 function applications"),
], ids=["field a kind does not carry", "user on a possess", "nested architecture term",
        "nested query term", "nested arch-trace term"])
def test_validate_rejects_with_one_error_line(capsys, tmp_path, name, text, where):
    doc = tmp_path / name
    doc.write_text(text)
    policy = ["--policy", DCP] if name.endswith(".dct") else []
    assert run(capsys, "validate", str(doc), *policy) == (2, "", f"error: {doc}:{where}\n")


def test_validate_errors_do_not_depend_on_the_hash_seed(tmp_path):
    policy = tmp_path / "places.dcp"
    policy.write_text(
        "actions { unary fav/unfav; }\n"
        "data d1 { ow = alice; ds = {alice}; type = Notes; policy {\n"
        "  purposes = {billing}; delete = {man:1}; where = {s, loc}; how = {plain};\n"
        "} }\n"
    )
    # Under the hash seeds 1 and 2 the set {s, loc} iterates in opposite orders.
    runs = [run_with_hash_seed(seed, "validate", str(policy)) for seed in ("1", "2")]
    assert [r.returncode for r in runs] == [2, 2]
    assert runs[0].stderr == runs[1].stderr
    assert "unknown storage place 'loc'; policy for 'd1': unknown storage place 's'" in runs[0].stderr


@pytest.mark.parametrize("declarations, message", [
    ("actions { unary like/unlike; unary has/unhas; }",
     "two events are named 'grouphas'; two events are named 'ungrouphas'"),
    ("actions { unary foo/unfoo; unary groupfoo/ungroupfoo; }",
     "two events are named 'groupfoo'; two events are named 'ungroupfoo'"),
    ("actions { unary like/unlike; }\nalias own/unf = groupact(like) + grouphas;",
     "alias name 'own' is also an event name"),
    ("actions { unary like/unlike; unary comment/uncomment; }\n"
     "alias like/unf = groupact(comment) + grouphas;",
     "alias name 'like' is also an event name"),
    ("actions { unary like/unlike; }\nalias addf/unf = groupact(unlike) + grouphas;",
     "alias 'addf' covers 'unlike', which is not a declared base action"),
    ("actions { unary like/unlike; unary possess/unpossess; }",
     "event 'possess' is also an architecture event name"),
    ("actions { unary friends/unfriends; binary addfriends/unaddfriends; }",
     "event 'unfriends' is also an architecture event name; "
     "event 'addfriends' is also an architecture event name"),
], ids=["base action has", "declared group name", "alias own", "alias like", "alias of un-action",
        "action possess", "actions named like friends events"])
def test_validate_rejects_an_ambiguous_model(capsys, tmp_path, declarations, message):
    doc = tmp_path / "ambiguous.dcp"
    doc.write_text(declarations + "\n")
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, out) == (2, "")
    assert err == f"error: {doc}:1:1: {message}\n"


@pytest.mark.parametrize("name", ["grouplike", "groupbogus", "groupunlike"])
def test_validate_checks_arch_trace_names_against_the_policy(capsys, tmp_path, name):
    doc = tmp_path / "group.dct"
    doc.write_text(f"archtrace {{\n  {name}(t=1, user=alice, tar=bob);\n}}\n")
    # Only a model declares the names.
    assert run(capsys, "validate", str(doc)) == (
        2, "", "error: validating an arch trace requires --policy\n")
    code, out, err = run(capsys, "validate", str(doc), "--policy", DCP)
    if name == "grouplike":
        assert (code, out, err) == (0, f"{doc}: valid arch-trace document\n", "")
    else:
        assert (code, out, err) == (2, "", f"error: {doc}:2:3: unknown event {name!r}\n")


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "no/such/file.dcp")
    assert code == 2 and "cannot read" in err


def test_file_that_is_not_utf8_is_usage_error(capsys, tmp_path):
    doc = tmp_path / "bad.dcp"
    doc.write_bytes(b"actions {}\n\xff")
    assert run(capsys, "validate", str(doc)) == (
        2, "", f"error: cannot read {doc}: byte 11 is not UTF-8\n")


@pytest.mark.parametrize("name", ["facebook.dcp", "full.dca", "photo1.dcq"])
def test_validate_rejects_policy_for_a_document_that_is_not_a_trace(capsys, name):
    kind = {"facebook.dcp": "policy", "full.dca": "architecture", "photo1.dcq": "query"}[name]
    assert run(capsys, "validate", f"{FIX}/{name}", "--policy", "no/such/file.dcp") == (
        2, "", f"error: --policy applies to traces and arch traces, not to {kind} documents\n")


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


# --- check-trace ------------------------------------------------------------


def test_check_trace_compliant(capsys):
    code, out, _ = run(capsys, "check-trace", DCP, f"{FIX}/fb_clean.dct")
    assert code == 0 and out.strip().endswith("compliant")


def test_check_trace_violation(capsys):
    code, out, _ = run(capsys, "check-trace", DCP, f"{FIX}/fb_badpurpose.dct")
    assert code == 1
    assert out.count("C1") == 1 and "non-compliant" in out


def test_check_trace_tsv(capsys):
    code, out, _ = run(capsys, "check-trace", DCP, f"{FIX}/fb_badpurpose.dct",
                       "--format", "tsv")
    assert code == 1
    line = out.splitlines()[0].split("\t")
    assert line[0] == "C1" and line[2] == "photo1"


def test_check_trace_text_warns_of_an_unattributed_delete(capsys, tmp_path):
    trace = tmp_path / "t.dct"
    trace.write_text('trace {\n  own(t=1, or=alice, dt=photo1, value="pic");\n'
                     "  delete(t=2, dt=photo1);\n}\n")
    code, out, _ = run(capsys, "check-trace", DCP, str(trace))
    assert code == 0
    assert out == ("warning: C2 skipped for delete at event 2: "
                   "no preceding deletereq names a performer\ncompliant\n")


def test_check_trace_names_the_failing_event_once(capsys, tmp_path):
    trace = tmp_path / "t.dct"
    trace.write_text('trace {\n  own(t=1, or=alice, dt=photo1, value="pic");\n'
                     '  own(t=2, or=alice, dt=photo1, value="pic");\n}\n')
    code, out, err = run(capsys, "check-trace", DCP, str(trace))
    assert (code, out, err) == (2, "", "error: event 2: duplicate own for datum 'photo1'\n")


# --- derive-arch ------------------------------------------------------------


def canonical(path):
    from datactl.dsl import parse_architecture, serialize_architecture

    return serialize_architecture(parse_architecture(open(path).read(), file=path))


def test_derive_arch_matches_goldens(capsys, tmp_path):
    out_path = tmp_path / "derived.dca"
    code, _, _ = run(capsys, "derive-arch", DCP, "--events", f"{FIX}/fb_all.dct",
                     "-o", str(out_path))
    assert code == 0
    assert out_path.read_text() == canonical(f"{FIX}/full.dca")

    code, _, _ = run(capsys, "derive-arch", DCP, "--events", f"{FIX}/fb_all.dct",
                     "--simplify-friends", "-o", str(out_path))
    assert code == 0
    assert out_path.read_text() == canonical(f"{FIX}/simplified.dca")


def test_derive_arch_unwritable_output_is_usage_error(capsys, tmp_path):
    out_path = tmp_path / "no" / "such" / "dir" / "x.dca"
    assert run(capsys, "derive-arch", DCP, "-o", str(out_path)) == (
        2, "", f"error: cannot write {out_path}: No such file or directory\n")


def test_derive_arch_idempotent_output(capsys, tmp_path):
    """Deriving from the canonical output's trace twice gives identical text."""
    first = run(capsys, "derive-arch", DCP, "--events", f"{FIX}/fb_all.dct")[1]
    second = run(capsys, "derive-arch", DCP, "--events", f"{FIX}/fb_all.dct")[1]
    assert first == second


# --- compare ----------------------------------------------------------------


def test_compare_archs_equal_and_different(capsys):
    code, out, _ = run(capsys, "compare-archs", f"{FIX}/full.dca", f"{FIX}/full.dca")
    assert code == 0 and "equal" in out
    code, out, _ = run(capsys, "compare-archs", f"{FIX}/full.dca", f"{FIX}/simplified.dca")
    assert code == 1 and "incomparable" in out
    assert "+ AddFriends[?i, ?tar](like, comment, post, tag, mention, share)" in out


def test_compare_archs_orders_permissions(capsys, tmp_path):
    """Two architectures with the same activities, one with two permission
    lines widened, are not equal: the widened one is a superset."""
    text = (FIX / "simplified.dca").read_text(encoding="utf-8")
    widened = text.replace("can like = {alice, bob};", "can like = {alice, bob, carol};")
    widened = widened.replace("has by post alice = {alice, bob};",
                              "has by post alice = {alice, bob, carol};")
    assert widened.count("carol") == 2
    wide = tmp_path / "wide.dca"
    wide.write_text(widened, encoding="utf-8")
    code, out, _ = run(capsys, "compare-archs", f"{FIX}/simplified.dca", str(wide))
    assert code == 1
    assert out == ("- can like = {alice, bob};\n- has by post alice = {alice, bob};\n"
                   "+ can like = {alice, bob, carol};\n+ has by post alice = {alice, bob, carol};\n"
                   "overall\tsubset\n")


def test_compare_archs_output_does_not_depend_on_the_hash_seed(tmp_path):
    empty = tmp_path / "empty.dca"
    empty.write_text("architecture {}\n")
    outputs = []
    for seed in ("5", "6"):
        done = run_with_hash_seed(seed, "compare-archs", f"{FIX}/full.dca", str(empty))
        assert done.returncode == 1, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert lines[:-1] == sorted(lines[:-1]) and lines[-1] == "overall\tsuperset"


def test_compare_policies_self(capsys):
    code, out, _ = run(capsys, "compare-policies", DCP, DCP)
    assert code == 0
    assert "email1: equal" in out and "photo1: equal" in out


def looser_copy(tmp_path):
    """The fixture model with photo1's purposes and group emptied."""
    text = Path(DCP).read_text()
    for old, new in (("purposes = {social-networking}", "purposes = {}"),
                     ("has group = {bob}", "has group = {}")):
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "looser.dcp"
    path.write_text(text)
    return str(path)


def test_compare_policies_text_and_verbose(capsys, tmp_path):
    second = looser_copy(tmp_path)
    code, out, _ = run(capsys, "compare-policies", DCP, second)
    assert code == 1
    assert out == "email1: equal\nphoto1: looser\n  ap: looser\n  has.group: looser\n"

    code, out, _ = run(capsys, "compare-policies", DCP, second, "--verbose")
    assert code == 1
    assert out == (
        "email1: equal\n  acp: equal\n  ap: equal\n  dm: equal\n  has.been: equal\n"
        "  has.by: equal\n  has.group: equal\n  ho: equal\n  wh: equal\n"
        "photo1: looser\n  acp: equal\n  ap: looser\n  dm: equal\n  has.been: equal\n"
        "  has.by: equal\n  has.group: looser\n  ho: equal\n  wh: equal\n"
    )


def test_compare_policies_tsv(capsys, tmp_path):
    code, out, _ = run(capsys, "compare-policies", DCP, looser_copy(tmp_path), "--format", "tsv")
    assert code == 1
    assert out == (
        "email1\tacp\tequal\nemail1\tap\tequal\nemail1\tdm\tequal\n"
        "email1\thas.been\tequal\nemail1\thas.by\tequal\nemail1\thas.group\tequal\n"
        "email1\tho\tequal\nemail1\twh\tequal\nemail1\toverall\tequal\n"
        "photo1\tacp\tequal\nphoto1\tap\tlooser\nphoto1\tdm\tequal\n"
        "photo1\thas.been\tequal\nphoto1\thas.by\tequal\nphoto1\thas.group\tlooser\n"
        "photo1\tho\tequal\nphoto1\twh\tequal\nphoto1\toverall\tlooser\n"
    )


# --- correspondence ---------------------------------------------------------


def test_check_correspondence_holds(capsys):
    code, out, _ = run(capsys, "check-correspondence", DCP,
                       "--trace", f"{FIX}/fb_corr.dct")
    assert code == 0 and "correspondence holds" in out


def test_check_correspondence_partial_trace_fails(capsys):
    code, out, _ = run(capsys, "check-correspondence", DCP,
                       "--trace", f"{FIX}/fb_all.dct")
    assert code == 1 and "correspondence fails" in out
    assert "email1" in out  # only the unexercised datum fails


def test_check_correspondence_tsv(capsys, tmp_path):
    """A one-datum model with no events derives an empty architecture: each
    row is property, user, datum, status and detail."""
    policy = tmp_path / "one.dcp"
    policy.write_text(
        "actions {\n  unary like/unlike;\n}\n"
        "data email1 {\n  ow = alice;\n  ds = {alice};\n  type = Email;\n  policy {\n"
        "    purposes = {enrolment};\n    delete = {man:0};\n    where = {sploc};\n"
        "    how = {enc(spkey)};\n    can delete = {alice};\n  }\n}\n"
    )
    code, out, _ = run(capsys, "check-correspondence", str(policy), "--format", "tsv")
    assert code == 1
    assert out == (
        "P1\talice\temail1\tfails\tnever-has rule applies but no holder clause does not\n"
        "P2\talice\temail1\tfails\townership clause applies but owner rule does not\n"
        "P3\talice\temail1\tholds\tneither applies\n"
        "P4\talice\temail1\tinapplicable\tno binary actions declared\n"
        "P1\tsp\temail1\tfails\tnever-has rule applies but no holder clause does not\n"
        "P2\tsp\temail1\tholds\tneither applies\n"
        "P3\tsp\temail1\tholds\tneither applies\n"
        "P4\tsp\temail1\tinapplicable\tno binary actions declared\n"
        "P5\t-\temail1\tfails\tprovider-storage rule applies but provider-possession rule does not\n"
        "P6\t-\temail1\tfails\tdeletion-delay rule applies but deletion rule does not\n"
        "correspondence fails\n"
    )


# --- eval-has and enumerate -------------------------------------------------


def test_eval_has_withdraws_through_a_declared_pair_not_named_un(capsys, tmp_path):
    """``defav`` takes back what ``fav`` gives: the derived architecture
    declares the pair, the arch trace reads ``defav`` as an un-action, and H5
    derives that carol no longer holds the datum."""
    policy, events = tmp_path / "fav.dcp", tmp_path / "fav.dct"
    policy.write_text(FAV_DEFAV_POLICY)
    events.write_text(FAV_DEFAV_TRACE)
    derived, image, query = tmp_path / "fav.dca", tmp_path / "image.dct", tmp_path / "q.dcq"
    assert run(capsys, "derive-arch", str(policy), "--events", str(events), "-o", str(derived)) == (
        0, f"wrote {derived}\n", "")
    assert derived.read_text().startswith("architecture {\n  actions {\n    unary fav/defav;\n  }\n")
    model = parse_policy(FAV_DEFAV_POLICY)
    image.write_text(serialize_arch_trace(image_trace(parse_trace(FAV_DEFAV_TRACE, model),
                                                      MappingContext(model))))
    assert run(capsys, "validate", str(image), "--policy", str(policy)) == (
        0, f"{image}: valid arch-trace document\n", "")
    assert [e.kind for e in parse_arch_trace(image.read_text(), model.sets)][-1] == "unact1"
    query.write_text("HAS_not[carol](X{ow=alice, ds={alice, bob, carol}, id=d1}, t=3)")
    assert run(capsys, "eval-has", str(derived), str(query), "--mode", "both",
               "--archtrace", str(image)) == (0, "deduce: derivable\nenumerate: holds\n", "")


def write_small_arch(tmp_path):
    path = tmp_path / "small.dca"
    path.write_text(
        "architecture {\n"
        "  Own[alice](X{ow=alice, ds={alice}, id=d1});\n"
        "  Possess(X{ow=alice, ds={alice}, id=d1});\n"
        "}\n"
    )
    return str(path)


def test_eval_has_both_modes(capsys, tmp_path):
    arch = write_small_arch(tmp_path)
    query = tmp_path / "q.dcq"
    query.write_text("HAS_sp(X{ow=alice, ds={alice}, id=d1})")
    code, out, _ = run(capsys, "eval-has", arch, str(query), "--mode", "both",
                       "--max-len", "2")
    assert code == 0
    assert "deduce: derivable" in out and "enumerate: holds" in out


def test_eval_has_negative(capsys, tmp_path):
    arch = write_small_arch(tmp_path)
    query = tmp_path / "q.dcq"
    query.write_text("HAS[bob](X{ow=alice, ds={alice}, id=d1}, t=1)")
    code, out, _ = run(capsys, "eval-has", arch, str(query), "--mode", "enumerate",
                       "--max-len", "2")
    assert code == 1 and "does not hold" in out


@pytest.mark.parametrize("query, exit_code, enumerate_line, stderr", [
    # a reachable state gives alice the variable: the search refutes the query
    ("HAS_never[alice](X{ow=alice, ds={alice}, id=d1})", 4, "enumerate: does not hold\n",
     "eval-has: the rules derive the query but the search refutes it (an unsound deduction)\n"),
    # no witness within the bound settles nothing: the derived answer stands
    ("HAS[bob](X{ow=alice, ds={alice}, id=d1}, t=1)", 0,
     "enumerate: does not hold (within bound)\n", ""),
    # one refuted part refutes a conjunction, though another is only unwitnessed
    ("HAS_never[alice](X{ow=alice, ds={alice}, id=d1}) AND HAS[bob](X{ow=alice, ds={alice}, id=d1}, t=1)",
     4, "enumerate: does not hold\n",
     "eval-has: the rules derive the query but the search refutes it (an unsound deduction)\n"),
])
def test_eval_has_reports_a_derived_query_the_search_refutes(
        capsys, tmp_path, monkeypatch, query, exit_code, enumerate_line, stderr):
    """A rule set that derives every query stands in for an unsound deduction."""
    arch = write_small_arch(tmp_path)
    path = tmp_path / "q.dcq"
    path.write_text(query)
    prop = parse_has_query(query)
    parts = set(prop.parts) if isinstance(prop, And) else {prop}
    monkeypatch.setattr(cli, "conclusions", lambda results: parts)
    code, out, err = run(capsys, "eval-has", arch, str(path), "--mode", "both", "--max-len", "2")
    assert (code, out, err) == (exit_code, "deduce: derivable\n" + enumerate_line, stderr)


def test_eval_has_rejects_an_arch_trace_the_architecture_does_not_admit(capsys, tmp_path):
    photo1 = "var=X{ow=alice, ds={alice, bob}, id=photo1}, value=\"pic\""
    query = tmp_path / "q.dcq"
    query.write_text("HAS[alice](X{ow=alice, ds={alice, bob}, id=photo1}, t=1)")
    trace = tmp_path / "t.dct"
    argv = ("eval-has", f"{FIX}/simplified.dca", str(query), "--mode", "deduce",
            "--archtrace", str(trace))
    trace.write_text(f"archtrace {{\n  own(t=1, user=alice, {photo1});\n"
                     f"  like(t=2, user=bob, {photo1});\n}}\n")
    assert run(capsys, *argv) == (0, "deduce: derivable\n", "")
    # a declared group event, but the simplified architecture has no GroupAct
    trace.write_text(f"archtrace {{\n  own(t=1, user=alice, {photo1});\n"
                     "  grouplike(t=2, user=alice, tar=bob);\n}\n")
    assert run(capsys, *argv) == (
        2, "", f"error: {trace}: event 2 instantiates no activity of {FIX}/simplified.dca\n")


def test_eval_has_rejects_an_arch_trace_it_would_not_read(capsys):
    """Only the deduction rules read ``--archtrace``; the search never does."""
    argv = ("eval-has", f"{FIX}/simplified.dca", f"{FIX}/photo1.dcq", "--mode", "enumerate",
            "--archtrace", "no/such/trace.dct")
    assert run(capsys, *argv) == (
        2, "", "error: --archtrace feeds the deduction rules, which --mode enumerate does not run\n")


@pytest.mark.parametrize("flag", ["--max-len", "--max-states"])
def test_eval_has_rejects_a_search_bound_it_would_not_read(capsys, flag):
    """Only the search reads the bounds; --mode deduce never does."""
    argv = ("eval-has", f"{FIX}/simplified.dca", f"{FIX}/photo1.dcq", "--mode", "deduce", flag, "4")
    assert run(capsys, *argv) == (
        2, "", "error: --max-len and --max-states bound the search, which --mode deduce does not run\n")


def test_check_correspondence_rejects_simplify_friends_with_an_architecture(capsys):
    """--simplify-friends shapes only the architecture derived when --arch is
    not given."""
    argv = ("check-correspondence", DCP, "--arch", f"{FIX}/full.dca", "--format", "tsv")
    assert run(capsys, *argv)[0] in (0, 1)
    assert run(capsys, *argv, "--simplify-friends") == (
        2, "", "error: --simplify-friends shapes the derived architecture, which --arch replaces\n")


def test_eval_has_conjunction_counts_the_users_of_its_parts(capsys, tmp_path):
    # zed is named only by the query; a conjunction must add zed to the
    # universe as the single property does, so P and "P AND P" agree.
    atom = "HAS_not[zed](X{ow=alice, ds={alice, bob}, id=photo1}, t=1)"
    outputs = []
    for text in (atom, f"{atom} AND {atom}"):
        query = tmp_path / "q.dcq"
        query.write_text(text)
        outputs.append(run(capsys, "eval-has", f"{FIX}/simplified.dca", str(query),
                           "--mode", "enumerate", "--max-len", "2"))
    assert outputs[0] == outputs[1] == (0, "enumerate: holds\n", "")


def test_eval_has_state_limit(capsys, tmp_path):
    arch = write_small_arch(tmp_path)
    query = tmp_path / "q.dcq"
    query.write_text("HAS_sp(X{ow=alice, ds={alice}, id=d1})")
    code, _, err = run(capsys, "eval-has", arch, str(query), "--mode", "enumerate",
                       "--max-len", "4", "--max-states", "2")
    assert code == 3 and "limit" in err


def test_eval_has_state_limit_bounds_the_search_until_the_verdict(capsys, tmp_path):
    """eval-has searches only until its verdict is settled, finishing that
    depth: photo1.dcq on simplified.dca is settled at depth 2, within 105
    states, so a cap that only deeper states would trip no longer fires.  A
    HAS_never that holds reads every state and trips where enumerate does."""
    simplified, photo1 = f"{FIX}/simplified.dca", f"{FIX}/photo1.dcq"
    argv = ("eval-has", simplified, photo1, "--max-len", "4", "--max-states")
    assert run(capsys, *argv, "200") == (0, "deduce: not derivable\nenumerate: holds\n", "")
    assert run(capsys, *argv, "105")[0] == 0
    assert run(capsys, *argv, "104") == (
        3, "deduce: not derivable\n", "enumerate: limit reached (more than 104 states within bound 4)\n")

    never = tmp_path / "never.dcq"
    never.write_text("HAS_never[bob](X{ow=alice, ds={alice, bob}, id=photo2})")
    argv = ("eval-has", simplified, str(never), "--mode", "enumerate", "--max-len", "4", "--max-states")
    assert run(capsys, *argv, "1688") == (0, "enumerate: holds (within bound)\n", "")
    assert run(capsys, *argv, "1687") == (
        3, "", "enumerate: limit reached (more than 1687 states within bound 4)\n")
    argv = ("enumerate", simplified, "--max-len", "4", "--max-states")
    assert run(capsys, *argv, "1688") == (0, "1688 reachable states within 4 events\n", "")
    assert run(capsys, *argv, "1687") == (3, "", "limit reached: more than 1687 states within bound 4\n")


def test_enumerate_decodes_no_state(capsys, monkeypatch):
    def refuse(self, s):
        raise AssertionError("enumerate decoded a state")

    monkeypatch.setattr(cli.arch_mod._Kernel, "decode", refuse)
    assert run(capsys, "enumerate", f"{FIX}/full.dca", "--max-len", "3") == (
        0, "7932 reachable states within 3 events\n", "")


def test_enumerate_state_limit_of_zero_and_one(capsys, tmp_path):
    """The cap trips only on a new state past it: an architecture with no
    activity reaches no new state, so even a cap of 0 lets its one state through."""
    empty = tmp_path / "empty.dca"
    empty.write_text("architecture {}\n")
    simplified = f"{FIX}/simplified.dca"
    for cap in ("0", "1"):
        assert run(capsys, "enumerate", str(empty), "--max-len", "2", "--max-states", cap) == (
            0, "1 reachable states within 2 events\n", "")
        assert run(capsys, "enumerate", simplified, "--max-len", "4", "--max-states", cap) == (
            3, "", f"limit reached: more than {cap} states within bound 4\n")


def test_enumerate_state_limit(capsys, tmp_path):
    arch = write_small_arch(tmp_path)
    code, _, err = run(capsys, "enumerate", arch, "--max-len", "4", "--max-states", "2")
    assert code == 3 and "limit" in err


def test_enumerate_counts_states(capsys, tmp_path):
    arch = write_small_arch(tmp_path)
    code, out, _ = run(capsys, "enumerate", arch, "--max-len", "2")
    assert code == 0 and "reachable states" in out


# --- failures map to exit 2 with one error line -----------------------------


NO_DELETE_POLICY = """actions {
  unary like/unlike;
}

data note1 {
  ow = alice;
  ds = {alice};
  type = Notes;
  policy {
    purposes = {support};
    where = {sploc};
    how = {enc(spkey)};
    can like = {alice};
  }
}
"""


def test_check_correspondence_without_delete_line(capsys, tmp_path):
    policy = tmp_path / "nodel.dcp"
    policy.write_text(NO_DELETE_POLICY)
    code, out, _ = run(capsys, "check-correspondence", str(policy), "--verbose")
    assert code in (0, 1) and out.strip().splitlines()[-1].startswith("correspondence")
    assert "P6 datum=note1: inapplicable" in out


def test_mapping_error_is_usage_error(capsys, tmp_path):
    policy = tmp_path / "nodel.dcp"
    policy.write_text(NO_DELETE_POLICY)
    trace = tmp_path / "nodel.dct"
    trace.write_text('trace {\n  own(t=1, or=alice, dt=note1, value="n");\n'
                     "  delete(t=2, dt=note1);\n}\n")
    code, out, err = run(capsys, "derive-arch", str(policy), "--events", str(trace))
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "no deletion mode" in err


def test_arch_semantics_error_is_usage_error(capsys, tmp_path, monkeypatch):
    from datactl import cli
    from datactl.architecture import ArchSemanticsError

    def refuse(*args, **kwargs):
        raise ArchSemanticsError("inconsistent architecture: d1 has two owners")

    monkeypatch.setattr(cli.arch_mod, "search_states", refuse)
    code, _, err = run(capsys, "enumerate", write_small_arch(tmp_path))
    assert code == 2 and err == "error: inconsistent architecture: d1 has two owners\n"


@pytest.mark.parametrize("argv", [
    ("enumerate", "--max-len", "-1"),
    ("enumerate", "--max-states", "-5"),
    ("eval-has", "--max-len", "-1", "--mode", "enumerate"),
])
def test_negative_bound_is_usage_error(capsys, tmp_path, argv):
    arch = write_small_arch(tmp_path)
    query = tmp_path / "q.dcq"
    query.write_text("HAS_sp(X{ow=alice, ds={alice}, id=d1})")
    paths = (arch, str(query)) if argv[0] == "eval-has" else (arch,)
    code, out, err = run(capsys, argv[0], *paths, *argv[1:])
    assert code == 2 and out == "" and "must be non-negative" in err


# --- flags ------------------------------------------------------------------


def _args_read(func):
    """The ``args`` attributes ``func`` reads, also through the module's
    helpers it passes ``args`` to."""
    read = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(func)))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
            read |= _args_read(getattr(cli, node.func.id))
    return read


def test_every_accepted_flag_is_read_or_rejected(capsys):
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    options = {name: [a for a in p._actions if a.option_strings and a.dest != "help"]
               for name, p in subparsers.items()}
    every_flag = {a.option_strings[-1] for actions in options.values() for a in actions}
    for name, parser in subparsers.items():
        read = _args_read(parser.get_default("func"))
        unread = [a.dest for a in options[name] if a.dest not in read]
        assert unread == [], f"{name} accepts flags it never reads: {unread}"
        positionals = [a for a in parser._actions if not a.option_strings]
        accepted = {s for a in options[name] for s in a.option_strings}
        for flag in sorted(every_flag - accepted):
            argv = [name, *("x" for _ in positionals), flag, "text"]
            assert main(argv) == 2, f"{name} accepts {flag}"
            assert "unrecognized arguments" in capsys.readouterr().err


def test_flag_prefix_is_not_taken_for_the_flag(capsys):
    assert main(["enumerate", "arch", "--max-l", "1"]) == 2  # a prefix of --max-len
    assert "unrecognized arguments: --max-l 1" in capsys.readouterr().err


# --- repeated calls and entry points -----------------------------------------


def test_main_can_be_called_repeatedly(capsys, tmp_path):
    before = build_parser.cache_info()
    every_subcommand = [
        ["validate", f"{FIX}/fb_clean.dct", "--policy", DCP],
        ["check-trace", DCP, f"{FIX}/fb_badpurpose.dct"],
        ["check-trace", DCP, f"{FIX}/fb_clean.dct", "--format", "tsv"],
        ["derive-arch", DCP, "--events", f"{FIX}/fb_all.dct", "--simplify-friends"],
        ["derive-arch", DCP, "-o", str(tmp_path / "derived.dca")],
        ["eval-has", f"{FIX}/simplified.dca", f"{FIX}/photo1.dcq", "--max-len", "2"],
        ["check-correspondence", DCP, "--trace", f"{FIX}/fb_corr.dct", "--verbose"],
        ["compare-policies", DCP, DCP, "--format", "tsv"],
        ["compare-archs", f"{FIX}/full.dca", f"{FIX}/simplified.dca"],
        ["enumerate", f"{FIX}/simplified.dca", "--max-len", "2"],
    ]
    for argv in every_subcommand:
        first = run(capsys, *argv)
        # A usage error of the same subcommand in between: a missing
        # positional, or an unknown flag after the positionals.
        assert run(capsys, argv[0], "--no-such-flag")[0] == 2
        assert run(capsys, *argv, "--no-such-flag")[0] == 2
        assert run(capsys, *argv) == first, argv

    # Flags set in one call are not the defaults of the next: the plain
    # text form lists only the failing results.
    argv = ("check-correspondence", DCP, "--trace", f"{FIX}/fb_all.dct")
    plain = run(capsys, *argv)
    *failing, verdict = plain[1].splitlines()
    assert verdict == "correspondence fails" and "\t" not in plain[1]
    assert failing and all(": fails (" in line for line in failing)
    code, out, _ = run(capsys, *argv, "--format", "tsv", "--verbose")
    assert code == 1 and "\tholds\t" in out
    assert run(capsys, *argv) == plain

    after = build_parser.cache_info()
    assert after.misses - before.misses <= 1 and after.currsize == 1


def test_main_builds_its_parser_at_most_once(capsys, tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    arch = write_small_arch(tmp_path)
    for _ in range(50):
        assert main(["enumerate", arch, "--max-len", "1"]) == 0
    capsys.readouterr()
    assert len(built) <= 9, built  # the root parser and its 8 subparsers


@pytest.mark.parametrize("argv, code", [
    (["validate", DCP], 0),
    (["check-trace", DCP, f"{FIX}/fb_badpurpose.dct"], 1),
    (["enumerate", f"{FIX}/simplified.dca", "--max-len", "-1"], 2),
], ids=["success", "finding", "usage error"])
def test_entry_points_exit_with_the_code_of_main(capsys, argv, code):
    assert main(argv) == code
    capsys.readouterr()
    # The wrapper an installer writes for the ``datactl`` console script
    # calls its entry point with no arguments and exits with the result.
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    module, function = re.search(r'^datactl = "(\S+):(\S+)"$', pyproject, re.M).groups()
    script = f"import sys; from {module} import {function}; sys.exit({function}())"
    for launcher in (("-m", "datactl.cli"), ("-c", script)):
        assert run_in_subprocess(launcher, *argv).returncode == code, launcher


# --- the search universe ----------------------------------------------------


def test_search_universe_skips_patterns_and_the_provider():
    x = Var(ow="?o", ds="?s", ident="d1")
    pa = Architecture(
        activities=frozenset({GroupAct("alice", "?j", "fav"), Own("?o", x)}),
        perms=Perms(can={"fav": frozenset({"bob", "?x"})},
                    by={"fav": {"?i": frozenset({"carol", SP})}}),
    )
    # A pattern inside a member set ({?x}) is no user either.
    assert _concrete_users(pa) == {"alice", "bob", "carol"}
