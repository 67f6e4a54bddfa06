import random

from datactl.model import (
    ActivitySets,
    DeletionSpec,
    Perms,
    Policy,
    PolicyModel,
    StorageSpec,
    validate_activity_sets,
    validate_model,
    validate_policy,
)

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
