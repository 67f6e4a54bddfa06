import importlib
import random

import pytest

from datactl import architecture as arch
from datactl import logic
from datactl.compliance import ComplianceReport, Violation
from datactl.dsl import SourceSpan
from datactl.mapping import ArchComparison, CorrespondenceResult, PolicyComparison
from datactl.model import (
    ActivitySets,
    DataRef,
    DeletionSpec,
    FriendAlias,
    Perms,
    Policy,
    PolicyModel,
    Record,
    StorageSpec,
    validate_activity_sets,
    validate_model,
    validate_policy,
)
from datactl.semantics import EventTemplate

from modelgen import random_model


def make_sets():
    return ActivitySets(unary=(("fav", "unfav"),), binary=(("link", "unlink"),))


def test_valid_sets_pass():
    assert validate_activity_sets(make_sets()) == []


def test_predefined_name_collision_rejected():
    sets = ActivitySets(unary=(("use", "unuse"),))
    assert validate_activity_sets(sets) == ["action 'use' collides with a predefined action"]


def test_name_declared_twice_rejected():
    """Names are checked in inventory order: unary actions, their un-actions,
    binary actions, theirs."""
    sets = ActivitySets(unary=(("a", "x"), ("y", "a"), ("y", "z")))
    assert validate_activity_sets(sets) == ["action 'y' declared more than once",
                                            "action 'a' declared more than once"]


def test_base_of_resolves_revokes():
    sets = make_sets()
    assert sets.base_of("unfav") == "fav"
    assert sets.base_of("fav") == "fav"
    assert sets.base_of("unlink") == "link"
    assert sets.base_of("ghost") is None


def make_policy(**kw):
    defaults = dict(
        ap=frozenset({"billing"}),
        dm=DeletionSpec((("man", 5),)),
        storage=StorageSpec(wh=frozenset({"sploc"}), ho=frozenset({("plain", "none")})),
        perms=Perms(),
    )
    defaults.update(kw)
    return Policy(**defaults)


def test_valid_policy_passes():
    assert validate_policy(make_policy(), make_sets()) == []


def test_undeclared_action_in_can_rejected():
    pol = make_policy(perms=Perms({"ghost": frozenset({"u1"})}))
    assert any("undeclared action" in e for e in validate_policy(pol, make_sets()))


def test_has_been_only_for_binary_actions():
    pol = make_policy(perms=Perms(been={"fav": {"u1": frozenset({"u2"})}}))
    assert any("not a declared binary action" in e for e in validate_policy(pol, make_sets()))


def test_empty_storage_rejected():
    pol = make_policy(storage=StorageSpec())
    errors = validate_policy(pol, make_sets())
    assert any("where" in e for e in errors) and any("how" in e for e in errors)


def test_negative_delay_rejected():
    pol = make_policy(dm=DeletionSpec((("man", -1),)))
    assert any("negative" in e for e in validate_policy(pol, make_sets()))


def test_model_reports_a_shared_policy_under_each_datum():
    """A policy object that several data share is reported once per datum, in
    the data's order, as an equal but separate object is."""
    bad = make_policy(perms=Perms({"ghost": frozenset({"u1"})}), storage=StorageSpec())
    copy = make_policy(perms=Perms({"ghost": frozenset({"u1"})}), storage=StorageSpec())
    model = PolicyModel(sets=make_sets(), policies={"d1": bad, "d2": make_policy(),
                                                    "d3": bad, "d4": copy})
    errors = ["undeclared action 'ghost' in can-groups", "storage place set (where) is empty",
              "storage form set (how) is empty"]
    assert validate_model(model) == [f"policy for {d!r}: {e}" for d in ("d1", "d3", "d4")
                                     for e in errors]


def test_sp_readable():
    plain = StorageSpec(wh=frozenset({"sploc"}), ho=frozenset({("plain", "none")}))
    spkey = StorageSpec(wh=frozenset({"sploc"}), ho=frozenset({("enc", "spkey")}))
    clkey = StorageSpec(wh=frozenset({"sploc"}), ho=frozenset({("enc", "clkey")}))
    client = StorageSpec(wh=frozenset({"clientloc"}), ho=frozenset({("plain", "none")}))
    assert plain.sp_readable() and spkey.sp_readable()
    assert not clkey.sp_readable() and not client.sp_readable()


def test_generated_models_validate():
    for seed in range(50):
        model = random_model(random.Random(seed))
        assert validate_model(model) == [], f"seed {seed}"


# --- records ------------------------------------------------------------------

X = arch.Var("alice", frozenset({"alice", "bob"}), "d1")
KEY = arch.KeyVar("sp")
# One instance of every record class in the package.
SAMPLES = [
    ActivitySets(unary=(("fav", "unfav"),)), DeletionSpec((("man", 3),)),
    StorageSpec(frozenset({"sploc"}), frozenset({("plain", "none")})),
    Perms(can={"fav": frozenset({"bob"})}), Policy(ap=frozenset({"billing"})),
    FriendAlias("addfriends", "unfriends", ("fav",)),
    X, KEY, arch.enc(X, KEY), arch.Own("alice", X), arch.Possess(KEY),
    arch.PossessOneOf(frozenset({X, KEY})), arch.GroupAct("alice", "bob", "fav"),
    arch.UnGroupAct("alice", "bob", "fav"), arch.GroupHas("alice", "bob"),
    arch.UnGroupHas("alice", "bob"), arch.AddFriends("alice", "bob", ("fav",)),
    arch.UnFriends("alice", "bob", ("fav",)), arch.DeleteReq("alice", X), arch.Delete(X, 3),
    arch.Act1("alice", "fav", X), arch.UnAct1("alice", "fav", X),
    arch.Act2("alice", "bob", "link", X), arch.UnAct2("alice", "bob", "link", X),
    arch.Architecture(frozenset({arch.Possess(KEY)})), arch.ArchEvent("own", 1, "alice", term=X),
    arch.initial_state(arch.Architecture(), ["alice"]), arch.Universe(("alice", "bob")),
    logic.HasSp(X), logic.Has("bob", X, 2), logic.HasNot("bob", X, 2), logic.HasNever("bob", X),
    logic.And((logic.HasSp(X), logic.HasNever("bob", X))),
    logic.DeductionResult("H8", logic.HasSp(X), "why"), logic.SemanticVerdict(True, False),
    CorrespondenceResult("P1", "bob", "d1", "holds"), PolicyComparison("equal", {"ap": "equal"}),
    ArchComparison("equal", (), (), (), ()),
    Violation("C1", DataRef("alice", frozenset({"alice"}), "Notes", "d1"), "detail", 1),
    EventTemplate("own"), SourceSpan("f", 1, 2),
]
# Records with equal fields that must stay distinct.
TWINS = [(arch.GroupAct, arch.UnGroupAct, ("alice", "bob", "fav")),
         (arch.GroupHas, arch.UnGroupHas, ("alice", "bob")),
         (arch.AddFriends, arch.UnFriends, ("alice", "bob", ("fav",))),
         (arch.Act1, arch.UnAct1, ("alice", "fav", X)),
         (arch.Act2, arch.UnAct2, ("alice", "bob", "link", X)),
         (logic.Has, logic.HasNot, ("bob", X, 2))]


def _hashed(value):
    try:
        return hash(value)
    except TypeError:  # a record holding a dict is as unhashable as the dict
        return TypeError


def test_samples_cover_every_record_class():
    modules = [importlib.import_module(f"datactl.{name}") for name in
               ("model", "architecture", "logic", "mapping", "compliance", "semantics", "dsl")]
    records = {cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, Record) and cls is not Record}
    assert {type(r) for r in SAMPLES} == records
    assert len(records) == 41


@pytest.mark.parametrize("first, second, fields", TWINS,
                         ids=[f"{a.__name__}/{b.__name__}" for a, b, _ in TWINS])
def test_twin_records_stay_distinct(first, second, fields):
    a, b = first(*fields), second(*fields)
    assert tuple(a) == tuple(b) and hash(a) == hash(b)
    assert a != b and b != a and not a == b
    assert len(frozenset({a, b})) == 2 and len({a: 1, b: 2}) == 2
    assert a == first(*fields) and not a != first(*fields)


def test_inequality_agrees_with_equality():
    copies = [type(r)(*r) for r in SAMPLES]
    for x in SAMPLES:
        for y in SAMPLES + copies:
            assert (x != y) is (not x == y), (x, y)


def test_record_hash_is_the_hash_of_its_fields():
    """The value a frozen dataclass's hash gave, so set and dict orders stay."""
    for r in SAMPLES:
        fields = tuple(r)[:3] if isinstance(r, arch.GlobalState) else tuple(r)
        assert _hashed(r) == _hashed(fields), r


def test_records_are_immutable():
    for r in SAMPLES:
        for name in (*r._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(r, name, None)
        assert not hasattr(r, "__dict__"), type(r).__name__


def test_global_state_equality_ignores_perms_and_slot():
    sigma = arch.initial_state(arch.Architecture(perms=Perms(group=frozenset({"bob"}))), ["bob"])
    other = sigma._replace(perms=Perms(can={"fav": frozenset({"bob"})}), slot={})
    assert sigma == other and not sigma != other and hash(sigma) == hash(other)
    assert sigma != sigma._replace(group=frozenset())


def test_mutable_records_compare_by_attributes():
    model = PolicyModel(make_sets())
    assert model == PolicyModel(make_sets()) and model.data is not PolicyModel(make_sets()).data
    model.alias = FriendAlias("addfriends", "unfriends", ("fav",))
    assert model != PolicyModel(make_sets())
    assert repr(ComplianceReport()) == "ComplianceReport(violations=[], warnings=[])"
    assert ComplianceReport().violations is not ComplianceReport().violations
