"""The job lists of the three workloads, each job with its verdict oracle.

A job runs one ``datactl`` subcommand in-process through ``datactl.cli.main``
with its output captured, so argument parsing, file reading and printing are
timed with the library work.  Where datactl has no subcommand for the work
(a single audit rule, a trace image, a canonical re-serialisation, listing
every deduced conclusion) the job calls the library directly.
"""

from __future__ import annotations

import io
import itertools
import random
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import datactl.cli
import datactl.compliance
import datactl.dsl
import datactl.logic
import datactl.mapping
from datactl.architecture import Universe
from datactl.logic import Has, HasNot, HasSp

import inputs

# audit-large: data items D in the large audit, which also runs on QUARTERS
# inputs of D/4 data each (as many data in all; a linear auditor would take
# as long for them as for the large one).
AUDIT_DATA = 600
QUARTERS = 4
# small-models: one random model (eight jobs) for each shape, that is each
# number of users, unary action pairs, binary action pairs and data that
# modelgen draws from.  A job's cost depends mostly on the shape, so covering
# every shape once keeps the pass time from depending on the seed.
SHAPES = tuple(itertools.product((2, 3, 4), (0, 1, 2), (0, 1, 2), (1, 2, 3)))
# Reachable-state counts of the fixture architectures.  The simplified counts
# at lengths 4 and 5 are part of the behaviour contract; the full.dca count at
# length 3 was measured with datactl 0.1.0 (the initial import) and is pinned
# here so that a change to the enumerator cannot alter it unnoticed.
STATES = {("simplified.dca", 4): 1688, ("simplified.dca", 5): 3805, ("full.dca", 3): 7932}


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the verdict is right


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = datactl.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_job(name: str, argv: list[str], code: int, check_out: Callable[[str], str | None]) -> Job:
    def check(result) -> str | None:
        got_code, out, err = result
        if "Traceback" in err:
            return f"printed a traceback: {err.strip().splitlines()[-1][:200]!r}"
        if got_code != code:
            return f"exit {got_code}, expected {code}; stderr: {err.strip()[:200]!r}"
        return check_out(out)

    return Job(name, lambda: run_cli(argv), check)


def exactly(expected: str) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        return None if out == expected else f"printed {out[:200]!r}, expected {expected[:200]!r}"

    return check


_VIOLATION = re.compile(r"^(C[1-5]) at event (\d+) \(([^)]*)\): ")


def audit_output(expected: list[tuple[str, int, str]]) -> Callable[[str], str | None]:
    """check-trace prints one line per violation, by rule then position, and
    a verdict line; nothing else (no warnings) is expected."""
    verdict = f"non-compliant ({len(expected)} violations)" if expected else "compliant"

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if not lines or lines[-1] != verdict:
            return f"verdict {lines[-1] if lines else ''!r}, expected {verdict!r}"
        got = []
        for line in lines[:-1]:
            m = _VIOLATION.match(line)
            if m is None:
                return f"unexpected line {line!r}"
            got.append((m.group(1), int(m.group(2)), m.group(3)))
        if got != expected:
            missing = sorted(set(expected) - set(got))[:3]
            extra = sorted(set(got) - set(expected))[:3]
            return f"violations differ: missing {missing}, unexpected {extra}"
        return None

    return check


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------


def audit_large(root: Path, work: Path, rng: random.Random):
    """check-trace at D and on four inputs of D/4 through the CLI, then each
    rule alone at D."""
    header, photo = inputs.facebook_parts(root / "fixtures/facebook/facebook.dcp")
    big = inputs.audit_case(header, photo, AUDIT_DATA, rng)
    cases = [big] + [inputs.audit_case(header, photo, AUDIT_DATA // 4, rng)
                     for _ in range(QUARTERS)]
    jobs = []
    for k, case in enumerate(cases):
        policy = _write(work / f"audit{k}.dcp", case.policy)
        trace = _write(work / f"audit{k}.dct", case.trace)
        jobs.append(cli_job(f"check-trace D={case.data} #{k}", ["check-trace", policy, trace], 1,
                            audit_output(case.expected)))

    model = datactl.dsl.parse_policy(big.policy)
    events = datactl.dsl.parse_trace(big.trace, model)
    for rule in datactl.compliance.RULES:
        want = [v for v in big.expected if v[0] == rule]

        def check(found, want=want, rule=rule):
            got = [(v.rule, v.event_index, v.datum.ident) for v in found]
            return None if got == want else f"{rule}: {len(got)} violations, expected {len(want)}"

        jobs.append(Job(f"check_rule {rule} D={big.data}",
                        lambda rule=rule: datactl.compliance.check_rule(rule, events, model.sets),
                        check))

    return jobs, {"audit_data": [c.data for c in cases], "audit_events": [c.events for c in cases]}


def search(root: Path, work: Path, rng: random.Random):
    """Bounded enumeration of the fixture architectures, and eval-has."""
    for name in ("simplified.dca", "full.dca", "photo1.dcq"):
        shutil.copyfile(root / "fixtures/facebook" / name, work / name)
    jobs = [
        cli_job(f"enumerate {arch} --max-len {n}",
                ["enumerate", str(work / arch), "--max-len", str(n)], 0,
                exactly(f"{states} reachable states within {n} events\n"))
        for (arch, n), states in STATES.items()
    ]
    # HAS_sp holds (the provider stores the ciphertext and the key) and
    # HAS_not[bob] at t=1 holds.  No --archtrace is given, so deduce sees an
    # empty trace: it derives HAS_sp (H8) but no timed HAS_not, and the
    # conjunction is not derivable.
    jobs.append(cli_job("eval-has photo1.dcq --mode both",
                        ["eval-has", str(work / "simplified.dca"), str(work / "photo1.dcq"),
                         "--mode", "both", "--max-len", "4"], 0,
                        exactly("deduce: not derivable\nenumerate: holds\n")))
    rng.shuffle(jobs)
    return jobs, {"job_order": [j.name for j in jobs]}


def _model_jobs(case: inputs.ModelCase, d: Path) -> list[Job]:
    d.mkdir()
    policy = _write(d / "policy.dcp", case.policy)
    clean = _write(d / "clean.dct", case.clean)
    bad = _write(d / "bad.dct", case.injected)
    full = _write(d / "full.dct", case.full)
    derived, reparsed = str(d / "derived.dca"), str(d / "reparsed.dca")
    rule, index, ident = case.violation

    def reparse():
        text = Path(derived).read_text(encoding="utf-8")
        again = datactl.dsl.serialize_architecture(datactl.dsl.parse_architecture(text))
        Path(reparsed).write_text(again, encoding="utf-8")
        return text, again

    def image():
        model = datactl.dsl.parse_policy(Path(policy).read_text(encoding="utf-8"))
        trace = datactl.dsl.parse_trace(Path(clean).read_text(encoding="utf-8"), model)
        img = datactl.mapping.image_trace(trace, datactl.mapping.MappingContext(model))
        text = datactl.dsl.serialize_arch_trace(img)
        again = datactl.dsl.serialize_arch_trace(datactl.dsl.parse_arch_trace(text, model.sets))
        return len(img), text, again

    def check_reparse(result):
        text, again = result
        return None if text == again else "re-serialised architecture differs"

    def check_image(result):
        n, text, again = result
        if n != case.clean_length:
            return f"image has {n} events, expected {case.clean_length}"
        return None if text == again else "re-serialised arch trace differs"

    return [
        cli_job("validate", ["validate", policy], 0, exactly(f"{policy}: valid policy document\n")),
        cli_job("check-trace clean", ["check-trace", policy, clean], 0, audit_output([])),
        cli_job(f"check-trace {rule}", ["check-trace", policy, bad], 1,
                audit_output([(rule, index, ident)])),
        cli_job("derive-arch", ["derive-arch", policy, "--events", full, "-o", derived], 0,
                exactly(f"wrote {derived}\n")),
        Job("re-serialise architecture", reparse, check_reparse),
        cli_job("check-correspondence", ["check-correspondence", policy, "--trace", full], 0,
                exactly("correspondence holds\n")),
        cli_job("compare-archs", ["compare-archs", derived, reparsed], 0,
                exactly("overall\tequal\n")),
        Job("image_trace", image, check_image),
    ]


def _deduction_job(pa, trace, users) -> Job:
    """Every Has / HAS_sp / HAS_not the rules deduce must be witnessed by the
    bounded search (deduction is sound)."""
    def run():
        unwitnessed = []
        universe = Universe(users=users)
        for r in datactl.logic.deduce(pa, trace, users):
            if isinstance(r.conclusion, (Has, HasSp, HasNot)):
                if not datactl.logic.eval_semantic(pa, r.conclusion, universe,
                                                   max_len=len(trace)).holds:
                    unwitnessed.append(r.render())
        return unwitnessed

    def check(unwitnessed):
        return None if not unwitnessed else f"not witnessed: {unwitnessed[:3]}"

    return Job("deduce + eval_semantic", run, check)


def small_models(root: Path, work: Path, rng: random.Random):
    jobs = []
    for i, shape in enumerate(SHAPES):
        case = inputs.model_case(random.Random(rng.getrandbits(64)), shape)
        for job in _model_jobs(case, work / f"m{i}"):
            job.name = f"m{i} {job.name}"
            jobs.append(job)
    for k, (pa, trace, users) in enumerate(inputs.deduction_instances()):
        job = _deduction_job(pa, trace, users)
        job.name = f"instance {k} {job.name}"
        jobs.append(job)
    return jobs, {"models": len(SHAPES)}


WORKLOADS = {"audit-large": audit_large, "search": search, "small-models": small_models}
