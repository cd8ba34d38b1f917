"""Compiled forms live and die with their program.

Every form built from an ``AnalyzedProgram`` — the lowered program and
each bound backend form — is memoized on that program, so a second run
reuses it and dropping the program frees it: at once, by reference
counting, because no form refers back to its program.  The serve
worker keeps no program past its reply, so a stream of first-sight
programs leaves none of them alive.  Class analyses live in the
worker's class table (entries, never an ``AnalysisCache``) and in the
disk shards.
"""

import gc
import os
import weakref

import pytest

import repro.core.api as api
from repro import RunOptions, analyze
from repro.core.cache import shard_path
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


def test_worker_keeps_no_program_past_its_reply(monkeypatch):
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
    # a finished Machine is cyclic and holds machine.analyzed, so only
    # a collection frees the last program
    gc.collect()
    assert len(seen) == 12
    assert all(ref() is None for ref in seen)


@pytest.mark.parametrize("disk", [False, True], ids=["memory", "disk"])
def test_worker_keeps_no_analysis_cache(monkeypatch, tmp_path, disk):
    # the worker builds one AnalysisCache per analysis and drops it
    # with the reply; only its class table outlives the analysis, and
    # every program's shard is published even when the table answered
    # all of its classes
    caches = []
    real_cache = worker_mod.AnalysisCache

    def tracking(*args, **kwargs):
        cache = real_cache(*args, **kwargs)
        caches.append(weakref.ref(cache))
        return cache

    monkeypatch.setattr(worker_mod, "AnalysisCache", tracking)
    root = str(tmp_path) if disk else None
    worker = worker_mod.WarmWorker(root)
    for i in range(12):
        source = SOURCE % i
        sha = program_sha(source)
        job = Job("run", source, sha,
                  job_fingerprint("run", sha, "static", "py"))
        reply = worker.handle(job.to_wire())
        assert reply["status"] == 200, reply
        assert os.path.exists(shard_path(str(tmp_path), sha)) == disk
        gc.collect()
        assert len(caches) == i + 1
        assert all(ref() is None for ref in caches)
