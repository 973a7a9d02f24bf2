"""Smoke test of ``benchmarks/event_census.py``: it measures from outside
(by wrapping two kernel methods), so a kernel refactor can break it
without any other test noticing."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "event_census.py"


def test_census_accounts_for_every_event_of_a_quick_cell():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "msg_small.eth_nsm", "a2a_wan.a2a",
         "--quick", "--top", "5"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    heads = re.findall(r"^#### `(\S+)` — (\d+) messages, (\d+) events "
                       r"processed .*?, (\d+) scheduled", proc.stdout, re.M)
    assert [h[0] for h in heads] == ["msg_small.eth_nsm", "a2a_wan.a2a"]
    for _cell, msgs, processed, scheduled in heads:
        # a drained run processes what was scheduled (nothing cancelled
        # or left over in these cells), and the wrapper saw all of it
        assert int(msgs) > 0 and int(processed) == int(scheduled)
    # rows name the model's scheduling site and the kernel primitive
    assert "`hosts/host.py:cpu_busy`" in proc.stdout
    # ... a burst's one entry per hop is the channel's landing call
    assert "| abs | at | `Simulator.call_at` | `atm/link.py:_serve` |" \
        in proc.stdout
    for table in proc.stdout.split("####")[1:]:
        per_msg = [float(x) for x in re.findall(r"^\| (\d+\.\d+) \|",
                                                table, re.M)]
        total = float(re.search(r"\((\d+\.\d+) per message\)", table)[1])
        assert abs(sum(per_msg) - total) < 0.06 * len(per_msg)


@pytest.fixture(scope="module")
def every_quick_cell():
    """The census of all seven cells, every row: ``(event, via, site)``."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--quick", "--top", "1000"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("####") == 7
    return set(re.findall(r"^\| \d+\.\d+ \| \w+ \| (\S+) \| `([^`]+)` \| "
                          r"`([^`]+)` \|$", proc.stdout, re.M))


def test_no_cell_wakes_a_sibling_thread_through_the_calendar(every_quick_cell):
    """The five signal events (ARCHITECTURE.md, "What may go on the
    calendar", fifth class) are in no row of any of the seven cells."""
    labels = {event for event, _via, _site in every_quick_cell}
    assert {"timeout", "boot", "get"} <= labels
    assert not labels & {"sendsig", "recvsig", "arrival", "AnyOf",
                         "ec-signal", "fc-credit-signal", "fc-rate-signal"}


def test_a_sleep_is_charged_to_the_generator_that_slept(every_quick_cell):
    """``yield seconds`` leaves no model frame on the stack: the census
    names the innermost generator of the ``yield from`` chain, never the
    process body as if the process had finished."""
    sleeps = {(via, site) for event, via, site in every_quick_cell
              if event == "sleep"}
    assert not {via for via, _site in sleeps} - {"sleep"}
    assert ("sleep", "hosts/host.py:cpu_busy") in {
        (event, site) for event, _via, site in every_quick_cell}
    assert "core/mts/scheduler.py:_loop" in {site for _via, site in sleeps}
    # a DMA transfer is no sleep: its completion is the engine's own
    # entry, armed at the ask or at the predecessor's completion
    assert not {site for _via, site in sleeps if site.startswith("atm/")}
    assert {(via, site) for event, via, site in every_quick_cell
            if event == "dma"} == {
                ("Event.succeed", "atm/adapter.py:_dma_ask"),
                ("Event.succeed", "atm/adapter.py:_dma_next")}


def test_no_cell_hands_a_message_over_through_the_calendar(every_quick_cell):
    """Sixth class: no transport acceptance event, no per-message
    ``submitted`` event of the Fig 2 pipeline, no pump process behind
    the ATM API (its boots and ``get`` s were scheduled by the API's
    delivery) in any row of any of the seven cells."""
    labels = {event for event, _via, _site in every_quick_cell}
    assert not labels & {"ncs-atm-accepted", "ncs-sock-accepted",
                         "submitted"}
    assert not {site for _event, _via, site in every_quick_cell
                if site.startswith("atm/api.py:")}
    # what is left of the chain: the runner's boot; the two drains ask
    # the DMA engine themselves (no ``get``), and neither an IP datagram
    # nor a NIC delivery boots a process to wait for its transfer
    rows = {(event, site) for event, _via, site in every_quick_cell}
    assert ("boot", "core/mps/transports.py:start_send") in rows
    assert not {site for event, site in rows if event == "get"
                and site.startswith(("atm/", "core/mps/buffers.py"))}
    assert not {site for event, site in rows if event == "boot"} & {
        "protocols/ip.py:send", "core/mps/collectives.py:_deliver_data"}


def test_the_segment_puts_only_its_own_entries_on_the_calendar(
        every_quick_cell):
    """Fourth class, Ethernet: no NIC drain process, no wake-up of one
    by an enqueue, no medium grant or per-frame timer; a frame's
    delivery and gap end are ``call_at`` entries from one site, as a
    burst's landing is from ``atm/link.py:_serve``."""
    segment = {row for row in every_quick_cell
               if row[2].startswith("ethernet/")}
    assert not {site for _event, _via, site in segment} & {
        "ethernet/lan.py:_drain", "ethernet/lan.py:enqueue",
        "ethernet/lan.py:transmit"}
    assert segment == {("at", "Simulator.call_at", "ethernet/lan.py:_arm")}
    assert ("at", "Simulator.call_at", "atm/link.py:_serve") \
        in every_quick_cell
