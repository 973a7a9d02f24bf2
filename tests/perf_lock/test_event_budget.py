"""The per-message event budget: a ceiling, so a hop cannot creep back.

``sim.events_processed`` is an implementation odometer — the goldens
next door exempt it on purpose — which means nothing else notices when a
change puts an unobservable hand-off (an acknowledgement nobody holds,
the boot and completion of a process nobody kept, the grant of a free
resource, a timer per stage of a hop nobody contends for, a kernel
event to wake a sibling thread, a transport's hand-over made through an
event or a pump; ARCHITECTURE.md, "What may go on the calendar") back on
the calendar.
These ceilings do.  The counts are exact and repeatable; each ceiling
sits 1–2 events above today's figure, where one extra zero-delay hop per
message (a ping-pong message crosses ~4 frames or bursts) trips it.  The
cells are the ``benchmarks/e2e`` shapes: ``msg_small``'s two legs (at
100 round trips instead of 325), ``msg_bulk``'s Ethernet leg (at 20
round trips instead of 55), ``a2a_wan`` whole and ``coll_256`` at 64
hosts.

A ceiling that fails because the *model* now does more per message (a
new protocol step) is raised in the PR that adds the step, with the
census (``benchmarks/event_census.py``) that shows where the events go.
"""

import json

import pytest

from repro.config import loads_scenario, run_scenario
from repro.obs import counter_total

#: cell -> (cluster, runtime, driver, params, events per message <=);
#: before the unobservable hand-offs were removed: 102.1, 101.6, 79.0;
#: before a burst crossed a hop on one entry: 65.0, 60.5, 45.7, 96.1;
#: before system threads parked and were signalled directly: 64.9, 50.3,
#: 34.4, 60.6; before the transport handed over by calling: 55.6, 39.4,
#: 26.2, 56.0; before the Ethernet segment was arithmetic: 53.6 (and
#: 753.4 for the 64 KiB cell); before the DMA engine was a FIFO server:
#: 33.4, 23.2, 56.0 (today: 44.6, 482.4, 29.4, 21.1, 55.0)
BUDGETS = {
    "pingpong-256B-ethernet-nsm": (
        {"topology": "ethernet", "n_hosts": 2},
        {"mode": "nsm", "error": "ack"},
        "pingpong", {"messages": 100, "nbytes": 256}, 46.0),
    "pingpong-64KiB-ethernet-nsm": (
        {"topology": "ethernet", "n_hosts": 2},
        {"mode": "nsm", "error": "ack"},
        "pingpong", {"messages": 20, "nbytes": 65536}, 484.0),
    "pingpong-256B-atm-lan-hsm": (
        {"topology": "atm-lan", "n_hosts": 2},
        {"mode": "hsm", "error": "ack"},
        "pingpong", {"messages": 100, "nbytes": 256}, 30.5),
    "alltoall-1KiB-wan-ring-8x4-hsm": (
        {"topology": "wan-ring",
         "options": {"n_sites": 8, "hosts_per_site": 4}},
        {"mode": "hsm"},
        "alltoall", {"rounds": 6, "nbytes": 1024}, 22.5),
    "collective-1KiB-atm-lan-64-nic": (
        {"topology": "atm-lan", "n_hosts": 64},
        {"mode": "nsm", "collectives": "nic"},
        "collective", {"rounds": 2, "nbytes": 1024}, 56.5),
}


@pytest.mark.parametrize("cell", sorted(BUDGETS))
def test_events_per_delivered_message_stay_under_the_ceiling(cell):
    cluster, runtime, driver, params, ceiling = BUDGETS[cell]
    spec = loads_scenario(json.dumps({
        "name": cell, "cluster": {**cluster, "seed": 1995},
        "runtime": runtime,
        "app": {"driver": driver, "params": params}}), "json")
    snapshot = run_scenario(spec).cluster.metrics.snapshot()
    events = counter_total(snapshot, "sim.events_processed")
    delivered = counter_total(snapshot, "mps.data_received")
    assert delivered > 0
    assert events / delivered <= ceiling, (
        f"{cell}: {events} events for {delivered} messages = "
        f"{events / delivered:.1f} per message, ceiling {ceiling}")
