"""Property tests over generated subregion pipelines: the Section 2.2
flush rule must hold for any handoff pattern, policy, and payload size —
and the ``py`` backend must agree with the interpreter on all of it."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import RunOptions, analyze
from repro.interp.machine import Machine, execute

PAYLOAD_FIELDS = ["int a;", "int b;", "int c;", "int d;"]


def pipeline_source(items: int, payload_fields: int, policy_lt: bool,
                    budget: int, hold_last: bool) -> str:
    """A single-threaded producer/consumer over one subregion: place an
    item, consume it, repeat; optionally leave the final item in the
    portal (which must then block the flush)."""
    fields = " ".join(PAYLOAD_FIELDS[:payload_fields])
    policy = f"LT({budget})" if policy_lt else "VT"
    consume_last = "" if hold_last else "h2.slot = null;"
    return f"""
regionKind Buf extends SharedRegion {{
    Sub : {policy} NoRT s;
}}
regionKind Sub extends SharedRegion {{
    Item<this> slot;
}}
class Item {{ {fields} int tag; }}
(RHandle<Buf r> h) {{
    int total = 0;
    int i = 0;
    while (i < {items}) {{
        (RHandle<Sub r2> h2 = h.s) {{
            Item it = new Item;
            it.tag = i;
            h2.slot = it;
        }}
        (RHandle<Sub r2> h2 = h.s) {{
            Item got = h2.slot;
            total = total + got.tag;
            if (i < {items} - 1) {{ h2.slot = null; }}
            else {{ {consume_last} }}
        }}
        i = i + 1;
    }}
    print(total);
}}
"""


@st.composite
def pipelines(draw):
    items = draw(st.integers(min_value=1, max_value=8))
    payload = draw(st.integers(min_value=0, max_value=4))
    policy_lt = draw(st.booleans())
    # budget always fits one item: header 16 + (payload+1)*8
    item_bytes = 16 + (payload + 1) * 8
    budget = draw(st.integers(min_value=item_bytes,
                              max_value=item_bytes * 3))
    hold_last = draw(st.booleans())
    return items, payload, policy_lt, budget, hold_last, item_bytes


class TestFlushRuleUnderAnyPattern:
    @given(pipelines())
    @settings(max_examples=30, deadline=None)
    def test_one_item_at_a_time_regardless_of_count(self, case):
        items, payload, policy_lt, budget, hold_last, item_bytes = case
        source = pipeline_source(items, payload, policy_lt, budget,
                                 hold_last)
        analyzed = analyze(source)
        assert not analyzed.errors, [str(e) for e in analyzed.errors]
        machine = Machine(analyzed, RunOptions())
        result = machine.run()
        assert result.output == [str(sum(range(items)))]
        sub = [a for a in machine.regions.areas
               if a.kind_name == "Sub"][0]
        # the flush rule kept the subregion at one item: even an LT
        # budget barely larger than a single item never overflowed
        assert sub.peak_bytes == item_bytes

    @given(pipelines())
    @settings(max_examples=20, deadline=None)
    def test_held_portal_blocks_final_flush(self, case):
        items, payload, policy_lt, budget, hold_last, _ib = case
        assume(hold_last)
        source = pipeline_source(items, payload, policy_lt, budget, True)
        analyzed = analyze(source)
        assert not analyzed.errors
        machine = Machine(analyzed, RunOptions())
        machine.run()
        sub = [a for a in machine.regions.areas
               if a.kind_name == "Sub"][0]
        # the last item was left in the portal: the region must NOT have
        # been flushed on the final exit (its bytes are still occupied)
        assert not sub.is_flushed

    @given(pipelines())
    @settings(max_examples=15, deadline=None)
    def test_backends_agree(self, case):
        items, payload, policy_lt, budget, hold_last, _ib = case
        source = pipeline_source(items, payload, policy_lt, budget,
                                 hold_last)
        analyzed = analyze(source)
        assert not analyzed.errors
        # the compiled Python forms refuse subregions and portals, so
        # the py backend routes these programs down its ladder; the
        # observables must not depend on where they land
        observed = []
        for backend in ("interp", "py"):
            result, _machine = execute(analyzed, RunOptions(
                checks_enabled=True, validate=False, instrument=False,
                backend=backend))
            observed.append((result.stats.cycles, result.output,
                             result.stats.summary()))
        assert observed[1] == observed[0]
