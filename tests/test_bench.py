"""The benchmark's traced pass: its wrappers around library calls take the
length of what ``tokenize`` returns and list the fold, so a library change
that makes one of them lazy or unsized shows only there."""

import importlib
import random
from collections import Counter
from pathlib import Path

from datactl.compliance import RULES
from datactl.dsl import tokenize

ROOT = Path(__file__).resolve().parent.parent


def test_traced_audit_pass_gives_every_verdict_and_counts_every_token(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    jobs = importlib.import_module("jobs")
    run = importlib.import_module("run")
    spans = importlib.import_module("spans")
    job_list, _ = jobs.audit_large(ROOT, tmp_path, random.Random(3))
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, _, failures = run.run_pass(job_list, tracer)
    finally:
        tracer.uninstall()
    assert failures == []
    pairs = [(tmp_path / f"audit{k}.dcp", tmp_path / f"audit{k}.dct") for k in range(5)]
    assert all(p.is_file() for pair in pairs for p in pair)
    assert tracer.counts["dsl.tokens"] == sum(
        len(tokenize(path.read_text(encoding="utf-8"))) for pair in pairs for path in pair)
    # one span per single-rule job, named after its rule
    names = Counter(span[0] for span in tracer.spans)
    assert [names[f"compliance.{rule}"] for rule in RULES] == [1] * len(RULES)
    # the five check-trace audits count each rule's violations that the
    # generator placed, for the same seed
    inputs = importlib.import_module("inputs")
    header, photo = inputs.facebook_parts(ROOT / "fixtures/facebook/facebook.dcp")
    rng = random.Random(3)
    cases = [inputs.audit_case(header, photo, jobs.AUDIT_DATA, rng)] + [
        inputs.audit_case(header, photo, jobs.AUDIT_DATA // 4, rng) for _ in range(jobs.QUARTERS)]
    assert [case.trace for case in cases] == [trace.read_text(encoding="utf-8") for _, trace in pairs]
    expected = Counter(rule for case in cases for rule, _, _ in case.expected)
    assert all(expected[rule] > 0 for rule in RULES)
    assert {rule: tracer.counts[f"compliance.violations.{rule}"] for rule in RULES} == {
        rule: expected[rule] for rule in RULES}
