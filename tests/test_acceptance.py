"""Acceptance gate: one test per release criterion, each printing an explicit
PASS/FAIL line with its runtime (run with ``pytest -s`` to see them inline)."""

import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from datactl.architecture import (
    Architecture,
    KeyVar,
    Own,
    Possess,
    Universe,
    Var,
    enc,
)
from datactl.compliance import check_trace
from datactl.dsl import (
    parse_architecture,
    parse_arch_trace,
    parse_has_query,
    parse_policy,
    parse_trace,
    serialize_arch_trace,
    serialize_architecture,
    serialize_policy,
    serialize_query,
    serialize_trace,
)
from datactl.logic import Has, HasNot, HasSp, deduce, eval_semantic
from datactl.mapping import (
    MappingContext,
    check_correspondence,
    derive_architecture,
    image_trace,
    map_storage,
    var_of,
)
from datactl.model import (
    SP,
    DataRef,
    DeletionSpec,
    Perms,
    Policy,
    PolicyModel,
    StorageSpec,
)
from datactl.semantics import possible_events

from modelgen import INJECTORS, compliant_trace, full_events, random_model

FIX = Path(__file__).resolve().parent.parent / "fixtures" / "facebook"


@contextmanager
def criterion(name: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL: {name}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        print(f"FAIL: {name} (took {elapsed:.2f}s, budget {budget:.0f}s)")
        raise AssertionError(f"{name} exceeded its {budget:.0f}s budget: {elapsed:.2f}s")
    print(f"PASS: {name} ({elapsed:.2f}s)")


# --- 1. transition-case coverage --------------------------------------------


# twelve transition cases, each with a dedicated test in test_semantics.py (two
# of them split the guarded/rejected branches into separate tests)
CASE_TESTS = (
    "test_case_own_initializes_entry",
    "test_case_store_adds_provider_when_readable",
    "test_case_use_is_identity",
    "test_case_deletereq_identity_with_manual_mode",
    "test_case_deletereq_rejected_without_manual_mode",
    "test_case_delete_maps_to_undefined",
    "test_case_groupact_grants_and_adds_holder",
    "test_case_ungroupact_revokes_and_removes_holder",
    "test_case_grouphas_adds_to_group_and_holders",
    "test_case_ungrouphas_removes_from_group_and_holders",
    "test_case_act1_guarded_update",
    "test_case_unact1_reverses_update",
    "test_case_act2_intersection_update",
    "test_case_unact2_reverses_update",
)


def test_criterion_transition_cases():
    # The case tests are called in-process, so the budget times them and not
    # the start-up of a fresh interpreter and its pytest plugins.
    with criterion("transition cases: dedicated test per state-machine case", 1.0):
        import test_semantics

        cases = {name: fn for name, fn in vars(test_semantics).items()
                 if "test_case_" in name and callable(fn)}
        missing = sorted(set(CASE_TESTS) - set(cases))
        extra = sorted(set(cases) - set(CASE_TESTS))
        assert not missing and not extra, f"missing {missing}, unexpected {extra}"
        assert len(cases) == 14

        # a skip or xfail mark would keep pytest from running a case as a pass
        module_marks = getattr(test_semantics, "pytestmark", None)
        assert not module_marks, f"test_semantics carries marks: {module_marks}"
        marked = sorted(name for name, fn in cases.items() if hasattr(fn, "pytestmark"))
        assert not marked, f"marked case tests: {marked}"

        failed = []
        for name in CASE_TESTS:
            try:
                cases[name]()
            except (Exception, pytest.fail.Exception, pytest.skip.Exception) as exc:
                failed.append(f"{name}: {type(exc).__name__}: {exc}")
        assert not failed, "failing case tests:\n" + "\n".join(failed)


# --- 2. audit detection sweep ------------------------------------------------


def test_criterion_audit_detection():
    with criterion("audit sweep: 100 clean traces, every injection detected,"
                   " zero false positives", 30.0):
        applied = {rule: 0 for rule in INJECTORS}
        for seed in range(100):
            rng = random.Random(seed)
            model = random_model(rng)
            trace = compliant_trace(model, rng)
            report = check_trace(trace, model.sets)
            assert report.compliant, f"false positive at seed {seed}: {report.render()}"
            for rule, inject in INJECTORS.items():
                mutated = inject(model, list(trace), rng)
                if mutated is None:
                    continue
                found = check_trace(mutated, model.sets)
                got = sorted({v.rule for v in found.violations})
                assert got == [rule], (
                    f"seed {seed}, injected {rule}, flagged {got}"
                )
                applied[rule] += 1
        for rule, n in applied.items():
            assert n >= 30, f"injector {rule} applied only {n} times"


# --- 3. deduction soundness ---------------------------------------------------


def _all_subsets(items):
    import itertools

    out = []
    for n in range(len(items) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(items, n))
    return out


def _instances():
    """Exhaustive sweep of a small instance space: two users plus the
    provider, one variable, one unary action, traces of length <= 4."""
    from datactl.architecture import Act1, ArchEvent, Delete, DeleteReq

    users = ("alice", "bob")
    x = Var(ow="alice", ds=frozenset(users), ident="d1")
    for can in _all_subsets(users):
        for by_bob in _all_subsets(users):
            for with_possess in (False, True):
                for with_delete in (False, True):
                    for performer in users:
                        perms = Perms(
                            can={"fav": can} if can else {},
                            by={"fav": {"bob": by_bob}} if by_bob else {},
                        )
                        activities = {Own("alice", x), Act1("?i", "fav", x)}
                        if with_possess:
                            activities.add(Possess(x))
                        if with_delete:
                            activities |= {DeleteReq("?i", x), Delete(x, 2)}
                        pa = Architecture(activities=frozenset(activities), perms=perms)
                        trace = [
                            ArchEvent("own", 1, user="alice", term=x, value="v"),
                            ArchEvent("act1", 2, user=performer, action="fav",
                                      term=x, value="v"),
                        ]
                        if with_delete:
                            trace.append(ArchEvent("deletereq", 3, user="bob", term=x))
                            trace.append(ArchEvent("delete", 4, user=SP, term=x))
                        yield pa, trace, users


def test_criterion_deduction_soundness():
    with criterion("deduction soundness: every deduced verdict is witnessed"
                   " by the bounded state search", 60.0):
        checked = instances = 0
        for pa, trace, users in _instances():
            instances += 1
            universe = Universe(users=users)
            for r in deduce(pa, trace, users):
                if not isinstance(r.conclusion, (Has, HasSp, HasNot)):
                    continue
                v = eval_semantic(pa, r.conclusion, universe, max_len=len(trace))
                assert v.holds, f"instance {instances}: {r.render()} not witnessed"
                checked += 1
        assert instances >= 100 and checked >= 100, (instances, checked)


# --- 4. service corpus --------------------------------------------------------


def test_criterion_service_corpus():
    with criterion("service corpus: declared sets, 31 event templates,"
                   " derived architecture matches both goldens", 5.0):
        model = parse_policy(open(f"{FIX}/facebook.dcp").read())
        assert len(model.sets.unary) == 2 and len(model.sets.binary) == 4
        assert model.alias is not None and len(model.alias.actions) == 6

        templates = possible_events(model.sets)
        assert len(templates) == 31

        events = parse_trace(open(f"{FIX}/fb_all.dct").read(), model)
        assert len(events) == 31

        full = derive_architecture(events, MappingContext(model))
        assert full == parse_architecture(open(f"{FIX}/full.dca").read())

        simplified = derive_architecture(
            events, MappingContext(model, simplify_friends=True)
        )
        assert simplified == parse_architecture(open(f"{FIX}/simplified.dca").read())


# --- 5. storage mapping cases -------------------------------------------------


def test_criterion_storage_mapping():
    with criterion("storage mapping: all four place/form cases exact", 1.0):
        dt = DataRef(ow="o", ds=frozenset({"o"}), dtype="T", ident="d")
        x = var_of(dt)

        def pol(wh, how):
            return Policy(storage=StorageSpec(wh=frozenset({wh}), ho=frozenset({how})))

        assert map_storage(dt, pol("clientloc", ("plain", "none"))) == frozenset(
            {Own("o", x)}
        )
        assert map_storage(dt, pol("sploc", ("plain", "none"))) == frozenset(
            {Own("o", x), Possess(x)}
        )
        assert map_storage(dt, pol("sploc", ("enc", "spkey"))) == frozenset(
            {Own("o", x), Possess(enc(x, KeyVar(SP))), Possess(KeyVar(SP))}
        )
        assert map_storage(dt, pol("sploc", ("enc", "clkey"))) == frozenset(
            {Own("o", x), Own("o", KeyVar("o")), Possess(enc(x, KeyVar("o")))}
        )


# --- 6. correspondence round trips --------------------------------------------


def _single_datum(model: PolicyModel) -> PolicyModel:
    ident = sorted(model.data)[0]
    out = PolicyModel(sets=model.sets, alias=model.alias)
    out.data[ident] = model.data[ident]
    out.policies[ident] = model.policies[ident]
    return out


def test_criterion_correspondence():
    with criterion("correspondence: 25 derived models hold, 25 mutations flip", 60.0):
        from datactl.architecture import Delete

        held = flipped = 0
        for seed in range(25):
            rng = random.Random(seed)
            model = random_model(rng)
            report = check_correspondence(
                MappingContext(model), trace=full_events(model)
            )
            assert report.holds, f"seed {seed}: {report.render()}"
            held += 1

        for seed in range(25):
            rng = random.Random(500 + seed)
            model = _single_datum(random_model(rng))
            ident = sorted(model.data)[0]
            events = full_events(model)
            ctx = MappingContext(model)
            pa = derive_architecture(events, ctx)
            x = var_of(model.data[ident])
            choice = seed % 3
            if choice == 0:  # ownership dropped
                bad = Architecture(
                    activities=frozenset(a for a in pa.activities
                                         if not isinstance(a, Own)),
                    perms=pa.perms,
                )
                expect = "P2"
            elif choice == 1:  # deletion machinery dropped
                bad = Architecture(
                    activities=frozenset(a for a in pa.activities
                                         if not isinstance(a, Delete)),
                    perms=pa.perms,
                )
                expect = "P6"
            else:  # unlicensed provider possession added
                if model.policies[ident].storage.sp_readable():
                    bad = Architecture(
                        activities=frozenset(
                            a for a in pa.activities
                            if not (isinstance(a, Possess))
                        ),
                        perms=pa.perms,
                    )
                else:
                    bad = Architecture(activities=pa.activities | {Possess(x)},
                                       perms=pa.perms)
                expect = "P5"
            report = check_correspondence(ctx, pa=bad, trace=events)
            failed = {r.prop for r in report.results if r.status == "fails"}
            assert expect in failed, (
                f"seed {seed}: expected {expect} to fail, got {sorted(failed)}"
            )
            flipped += 1
        assert held + flipped >= 50


# --- 7. round-trip volume -----------------------------------------------------


def test_criterion_round_trip_volume():
    with criterion("syntax: 1000 documents survive parse/serialize round trips", 10.0):
        count = 0
        for seed in range(250):
            rng = random.Random(seed)
            model = random_model(rng)
            ctx = MappingContext(model)

            text = serialize_policy(model)
            assert serialize_policy(parse_policy(text)) == text
            count += 1

            trace = compliant_trace(model, rng)
            ttext = serialize_trace(trace, model)
            assert serialize_trace(parse_trace(ttext, model), model) == ttext
            count += 1

            pa = derive_architecture(full_events(model), ctx)
            atext = serialize_architecture(pa)
            assert serialize_architecture(parse_architecture(atext)) == atext
            count += 1

            at = image_trace(trace, ctx)
            attext = serialize_arch_trace(at)
            assert serialize_arch_trace(parse_arch_trace(attext, model.sets)) == attext
            count += 1
        for seed in range(100):
            rng = random.Random(1000 + seed)
            model = random_model(rng)
            ident = sorted(model.data)[0]
            x = var_of(model.data[ident])
            prop = rng.choice([
                HasSp(x), Has("u1", x, rng.randint(1, 9)),
                HasNot("u2", x, rng.randint(1, 9)),
            ])
            qtext = serialize_query(prop)
            assert serialize_query(parse_has_query(qtext)) == qtext
            count += 1
        assert count >= 1000, count
