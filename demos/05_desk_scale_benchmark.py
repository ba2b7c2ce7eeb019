"""
Desk-scale benchmark
====================

100 UEs on 10 eNBs for one simulated second: 10,000 round trips, just
under 390,000 events. The run is still a single sequential event loop;
this prints the throughput and cross-checks the executed event total
against the chain-walk oracle's closed-form prediction.
"""

import time

from lteadv_sim import MetricsSink, build, parse
from lteadv_sim.trace import expected_event_total

N_UE, N_ENB = 100, 10

lines = ["network Network {", f"    ue ue[{N_UE}];", f"    enb enb[{N_ENB}];",
         "    sgw_mme sgw_mme;", "    pdn_gw pdn_gw;"]
per = N_UE // N_ENB
for e in range(N_ENB):
    lines.append(f"    attach ue[{e * per}..{e * per + per - 1}] -> enb[{e}];")
lines += ["    generator on ue[*] { period 10ms; }", "    run until 1s;", "}"]

spec = parse("\n".join(lines)).spec

start = time.perf_counter()
network = build(spec)
sim = network.simulator()
sink = MetricsSink(spec)  # folds each event as it arrives, keeps no record
summary = sim.run(until=spec.until, sinks=[sink])
metrics = sink.finish(summary)
elapsed = time.perf_counter() - start

print(f"network         : {N_UE} UEs on {N_ENB} eNBs, shared core")
print(f"events executed : {summary.events_executed}")
print(f"oracle predicts : {expected_event_total(spec)}")
print(f"round trips     : {metrics.round_trips}")
print(f"path mismatches : {len(metrics.path_mismatches)}")
print(f"wall time       : {elapsed:.2f} s (build + run + metrics)")
print(f"throughput      : {metrics.events_per_wall_second:,.0f} events per wall second")
