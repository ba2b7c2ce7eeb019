"""The list-grouping `summarize` that `trace.MetricsSink` replaced, kept
verbatim as the reference the streaming fold is tested against: the same
Metrics, key order and wording included, on any sequence of records.
"""

from typing import Optional, Sequence

from lteadv_sim.kernel import EventRecord, RunSummary, SimTime
from lteadv_sim.netconfig import NetworkSpec, instance_table
from lteadv_sim.trace import Metrics, _walk, timer_hop


def summarize(records: Sequence[EventRecord], spec: NetworkSpec,
              run_summary: Optional[RunSummary] = None) -> Metrics:
    """Reduce a trace to metrics and check every message against the oracle.

    Each message's visited (path, name) sequence must be the full oracle
    walk (a completed round trip), a prefix of it (in flight when the run
    stopped), or a generator re-arm timer. A walk that runs to completion
    on a UE with no generator ends at the top of the stack and counts as a
    drop there. Anything else is reported in path_mismatches.
    """
    metrics = Metrics(total_events=len(records))

    by_msg: dict[int, list[EventRecord]] = {}
    for rec in records:
        by_msg.setdefault(rec.msg_id, []).append(rec)

    table = instance_table(spec)
    walks: dict[str, list[tuple[str, str]]] = {}
    first_hop_to_ue: dict[tuple[str, str], str] = {}
    timer_hops: dict[tuple[str, str], str] = {}
    for ue in table.ues:
        try:
            walk = _walk(spec, table, ue)
        except ValueError:
            continue
        walks[ue] = walk
        first_hop_to_ue[walk[0]] = ue
        timer_hops[timer_hop(spec, ue)] = ue

    for msg_id, recs in by_msg.items():
        seq = [(r.path, r.msg_name) for r in recs]
        metrics.per_message_hops[msg_id] = len(seq)
        if len(seq) == 1 and seq[0] in timer_hops:
            continue
        ue = first_hop_to_ue.get(seq[0])
        if ue is None:
            metrics.path_mismatches.append(
                f"msg {msg_id}: unexpected first hop {seq[0]!r}")
            continue
        walk = walks[ue]
        if seq == walk:
            if ue in table.generator_of:
                metrics.round_trips += 1
                metrics.per_message_rtt[msg_id] = SimTime(recs[-1].t_ns - recs[0].t_ns)
            else:
                top_path = walk[-1][0]
                metrics.drops[top_path] = metrics.drops.get(top_path, 0) + 1
        elif seq == walk[:len(seq)]:
            pass  # in flight when the run stopped
        else:
            for i, (got, want) in enumerate(zip(seq, walk)):
                if got != want:
                    metrics.path_mismatches.append(
                        f"msg {msg_id}: hop {i} is {got!r}, expected {want!r}")
                    break
            else:
                metrics.path_mismatches.append(
                    f"msg {msg_id}: {len(seq)} hops, expected {len(walk)}")

    if run_summary is not None and run_summary.wall_clock_seconds > 0:
        metrics.events_per_wall_second = (
            metrics.total_events / run_summary.wall_clock_seconds)
    return metrics
