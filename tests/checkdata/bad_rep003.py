"""Known-bad fixture: REP003 undocumented counter names."""

from repro.mapreduce import counters as counter_names
from repro.mapreduce.counters import tenant_counter


def mint(tenant):
    return f"custom.{tenant}.ops"


class CountingThing:
    def run(self, ctx, tenant):
        ctx.counters.inc("my_adhoc_counter")  # <- REP003
        ctx.counters.inc(counter_names.TOTALLY_BOGUS)  # <- REP003
        ctx.counters.inc(f"serve.rogue.{tenant}.queries")  # <- REP003
        ctx.counters.inc(mint(tenant))  # <- REP003
        ctx.counters.inc("serve.tenant.rogue.bandwidth")  # <- REP003
        ctx.counters.inc("skyline.tuple_compares")  # documented: fine
        ctx.counters.inc(counter_names.TUPLE_COMPARES)  # constant: fine
        ctx.counters.inc("serve.tenant.t0.queries")  # family instance: fine
        ctx.counters.inc(tenant_counter(tenant, "shed"))  # builder: fine
        ctx.counters.inc(f"serve.tenant.{tenant}.timed_out")  # family: fine
        ctx.counters.inc("serve.rogue")  # <- REP003
        ctx.counters.inc("serve.tenant.t3.bogus_field")  # <- REP003
        ctx.counters.inc("serve.queries")  # documented: fine
        ctx.counters.inc("serve.tenant.t3.timed_out")  # family instance: fine
        ctx.counters.inc(tenant_counter("t1", "queries"))  # builder: fine
