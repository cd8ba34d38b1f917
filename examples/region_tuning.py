#!/usr/bin/env python3
"""Tuning a region program with the developer tools.

The paper (Section 4) names the two costs of region-based memory
management: "grouping objects into regions and determining the maximum
size of LT regions".  This example takes a deliberately mis-tuned
pipeline and walks the three tools over it:

1. the **advisor** sizes the LT subregion from an instrumented run
   (the declared budget is 16x too large) and flags a VT region that
   should be preallocated;
2. the **effects linter** catches a spurious ``heap`` effect that would
   lock real-time threads out of a perfectly RT-safe method;
3. the **timeline** shows the subregion flushing after every frame — the
   leak-freedom the paper's subregions exist for.
"""

from repro import RunOptions, analyze
from repro.interp.machine import Machine
from repro.tools import advise, format_report, lint_effects
from repro.tools.timeline import events_between, render_timeline

PROGRAM = """
regionKind Camera extends SharedRegion {
    FrameArea : LT(8192) NoRT frames;      // deliberately over-sized
}
regionKind FrameArea extends SharedRegion { }

class Pixel { int value; Pixel next; }

class Analyzer<Owner o> {
    // the spurious `heap` effect: this method only reads pixels
    int checksum<Owner p>(Pixel<p> head) accesses p, heap {
        int total = 0;
        Pixel<p> walk = head;
        while (walk != null) {
            total = total + walk.value;
            walk = walk.next;
        }
        return total;
    }
}

class Grabber<Camera r> {
    // `heap` is genuinely needed here: entering a NoRT subregion may
    // allocate (the paper's [EXPR SUBREGION] premise)
    void grab(RHandle<r> h, int frames) accesses r, heap {
        int i = 0;
        while (i < frames) {
            (RHandle<FrameArea r2> h2 = h.frames) {
                Pixel<r2> head = null;
                int p = 0;
                while (p < 8) {
                    Pixel<r2> px = new Pixel<r2>;
                    px.value = i * 8 + p;
                    px.next = head;
                    head = px;
                    p = p + 1;
                }
                check(head != null);
            }
            i = i + 1;
        }
    }
}

(RHandle<Camera r> h) {
    Grabber<r> g = new Grabber<r>;
    g.grab(h, 5);
}
"""


def main() -> None:
    analyzed = analyze(PROGRAM).require_well_typed()

    print("=== 1. region sizing (repro.tools.advisor) ===")
    report = advise(analyzed)
    print(report.format())
    frame_advice = next(a for a in report.regions
                        if a.kind_name == "FrameArea")
    print(f"\n  -> declared LT({frame_advice.declared_budget}), peak "
          f"{frame_advice.peak_bytes} bytes/frame; suggested "
          f"LT({frame_advice.suggested_budget})")
    assert "over-provisioned" in frame_advice.note

    print("\n=== 2. effects lint (repro.tools.effects_lint) ===")
    lint = lint_effects(analyzed)
    print(format_report(lint))
    checksum = next(r for r in lint if r.method_name == "checksum")
    assert any(o.name == "heap" for o in checksum.redundant), \
        "the spurious heap effect on checksum() is flagged"
    grab = next(r for r in lint if r.method_name == "grab")
    assert not any(o.name == "heap" for o in grab.redundant), \
        "grab() genuinely needs heap (it enters a NoRT subregion)"
    print("  -> checksum(): dropping 'heap' makes it callable from "
          "real-time threads")
    print("  -> grab(): 'heap' correctly kept (NoRT subregion entry "
          "may allocate)")

    print("\n=== 3. execution timeline (repro.tools.timeline) ===")
    machine = Machine(analyzed, RunOptions(record=True))
    machine.run()
    print(render_timeline(machine.stats,
                          kinds=["region-created", "region-flushed",
                                 "region-destroyed"]))
    flushes = [e for e in events_between(machine.stats, 0,
                                          machine.stats.cycles)
               if e[1] == "region-flushed"]
    assert len(flushes) == 5, "one flush per frame — no leak"
    print(f"\n  -> {len(flushes)} flushes for 5 frames: the LT area is "
          "reused, never re-allocated")


if __name__ == "__main__":
    main()
