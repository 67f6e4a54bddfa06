"""The benchmark's traced pass: its wrappers around library calls take the
length of what ``tokenize`` returns and list the fold, so a library change
that makes one of them lazy or unsized shows only there."""

import importlib
import random
from pathlib import Path

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
