"""Compiled forms live and die with their program.

Every form built from an ``AnalyzedProgram`` — the lowered program and
each bound backend form — is memoized on that program, so a second run
reuses it and dropping the program frees it: at once, by reference
counting, because no form refers back to its program.  That is what
lets the serve worker's ``MAX_PROGRAMS`` LRU bound a worker's memory
under a stream of first-sight programs.
"""

import gc
import weakref

import pytest

import repro.core.api as api
from repro import RunOptions, analyze
from repro.interp.machine import execute
from repro.serve import worker as worker_mod
from repro.serve.protocol import Job, job_fingerprint, program_sha

from .test_backend_equivalence import C_AVAILABLE

SOURCE = """
class Cell<Owner o> {
    int v;
    int bump(int d) { v = v + d; return v; }
}
(RHandle<r> h) {
    Cell<r> c = new Cell<r>;
    c.v = %d;
    print(c.bump(41));
}
"""


BACKENDS = [("py", "py-fused"), ("py-faithful", "py-faithful")]
if C_AVAILABLE:
    BACKENDS.append(("c", "c"))

OPTIONS = dict(checks_enabled=False, validate=False, instrument=False)


@pytest.mark.parametrize("backend,form", BACKENDS,
                         ids=[b for b, _f in BACKENDS])
def test_program_is_collected_after_a_compiled_run(backend, form):
    analyzed = analyze(SOURCE % 1)
    result, machine = execute(analyzed, RunOptions(backend=backend,
                                                   **OPTIONS))
    assert machine.program.backend == form
    assert result.output == ["42"]
    ref = weakref.ref(analyzed)
    del result, machine
    gc.collect()  # the run's machine is cyclic garbage
    gc.disable()
    try:
        # the program and its compiled forms are acyclic: dropping the
        # last reference frees them without the collector
        del analyzed
        assert ref() is None
    finally:
        gc.enable()


def test_second_run_reuses_the_bound_form():
    analyzed = analyze(SOURCE % 1)
    options = RunOptions(backend="py", **OPTIONS)
    execute(analyzed, options)
    forms = dict(analyzed.compiled)
    assert "lowered" in forms and len(forms) == 2
    execute(analyzed, options)
    assert analyzed.compiled.keys() == forms.keys()
    assert all(analyzed.compiled[key] is form
               for key, form in forms.items())


def test_worker_lru_bounds_live_programs(monkeypatch):
    monkeypatch.setattr(worker_mod, "MAX_PROGRAMS", 4)
    seen = []
    real_analyze = api.analyze

    def tracking(*args, **kwargs):
        analyzed = real_analyze(*args, **kwargs)
        seen.append(weakref.ref(analyzed))
        return analyzed

    monkeypatch.setattr(api, "analyze", tracking)
    worker = worker_mod.WarmWorker()
    for i in range(12):
        source = SOURCE % i
        sha = program_sha(source)
        job = Job("run", source, sha,
                  job_fingerprint("run", sha, "static", "py"))
        reply = worker.handle(job.to_wire())
        assert reply["status"] == 200, reply
        assert reply["body"]["backend_used"] == "py-fused"
    gc.collect()
    assert len(seen) == 12
    assert sum(1 for ref in seen if ref() is not None) <= 4
