"""Seeded workload generators: each returns the `.net` config text of one
benchmark workload, a pure function of the seed.

Seeded values are drawn as permutations of fixed multisets (periods,
eNB assignments, backhaul delays) so that every seed asks for nearly the
same amount of work while the topology text, the event interleaving and
the trace contents still differ between seeds. Host-time spread across
seeds is then timing noise, not workload size.
"""

from __future__ import annotations

import random

DESK_UES, DESK_ENBS = 100, 10
METRO_UES, METRO_ENBS = 1000, 100
DESK_UNTIL_MS = 1000
DESK_TRACED_UNTIL_MS = 200
METRO_UNTIL_MS = 100

PERIOD_MIN_US, PERIOD_MAX_US = 5_000, 20_000
ENB_DELAY_MIN_US, ENB_DELAY_MAX_US = 100, 1_000
SGW_PDN_DELAY = "500us"
PAYLOAD_MIN, PAYLOAD_MAX = 64, 1_500


def _header(n_ue: int, n_enb: int) -> list[str]:
    return ["network Network {", f"    ue ue[{n_ue}];", f"    enb enb[{n_enb}];",
            "    sgw_mme sgw_mme;", "    pdn_gw pdn_gw;"]


def _spread(lo: int, hi: int, n: int) -> list[int]:
    """n integers evenly spaced over [lo, hi]."""
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i // (n - 1) for i in range(n)]


def desk(seed: int, n_ue: int = DESK_UES, n_enb: int = DESK_ENBS,
         until_ms: int = DESK_UNTIL_MS) -> str:
    """The desk-scale demo config: contiguous UE blocks per eNB, one
    wildcard generator, zero delays. The seed only sets the config's
    `seed` statement; the work is the same for every seed."""
    per = n_ue // n_enb
    lines = _header(n_ue, n_enb)
    for e in range(n_enb):
        lines.append(f"    attach ue[{e * per}..{e * per + per - 1}] -> enb[{e}];")
    lines += ["    generator on ue[*] { period 10ms; }",
              f"    run until {until_ms}ms;", f"    seed {seed};", "}"]
    return "\n".join(lines) + "\n"


def _per_ue(rng: random.Random, n_ue: int, n_enb: int, payloads: bool) -> list[str]:
    """One attach and one generator statement per UE, seeded."""
    enb_of = [i % n_enb for i in range(n_ue)]
    rng.shuffle(enb_of)
    periods = _spread(PERIOD_MIN_US, PERIOD_MAX_US, n_ue)
    rng.shuffle(periods)
    lines = []
    for i in range(n_ue):
        lines.append(f"    attach ue[{i}] -> enb[{enb_of[i]}];")
    for i, period in enumerate(periods):
        start = rng.randrange(period)
        payload = (f"payload packet {rng.randint(PAYLOAD_MIN, PAYLOAD_MAX)};"
                   if payloads else "payload message;")
        lines.append(f"    generator on ue[{i}] {{ period {period}us; "
                     f"start {start}us; {payload} }}")
    return lines


def desk_traced(seed: int, n_ue: int = DESK_UES, n_enb: int = DESK_ENBS,
                until_ms: int = DESK_TRACED_UNTIL_MS) -> str:
    """Desk size with per-UE statements, packet payloads and nonzero
    backhaul delays, for the traced CLI run."""
    rng = random.Random(f"desk_traced:{seed}")
    lines = _header(n_ue, n_enb) + _per_ue(rng, n_ue, n_enb, payloads=True)
    delays = _spread(ENB_DELAY_MIN_US, ENB_DELAY_MAX_US, n_enb)
    rng.shuffle(delays)
    for e, delay in enumerate(delays):
        lines.append(f"    link enb[{e}] -> sgw_mme delay {delay}us;")
    lines += [f"    link sgw_mme -> pdn_gw delay {SGW_PDN_DELAY};",
              f"    run until {until_ms}ms;", f"    seed {seed};", "}"]
    return "\n".join(lines) + "\n"


def metro(seed: int, n_ue: int = METRO_UES, n_enb: int = METRO_ENBS,
          until_ms: int = METRO_UNTIL_MS) -> str:
    """Ten times desk size with per-UE statements and offset starts;
    zero delays, so the oracle's event total is exact."""
    rng = random.Random(f"metro:{seed}")
    lines = _header(n_ue, n_enb) + _per_ue(rng, n_ue, n_enb, payloads=False)
    lines += [f"    run until {until_ms}ms;", f"    seed {seed};", "}"]
    return "\n".join(lines) + "\n"


GENERATORS = {"desk": desk, "desk_traced": desk_traced, "metro": metro}
