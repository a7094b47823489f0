"""Closed-form arrival time of a lone frame through the one-switch star.

The reference the fabric identity tests hold every busy-until fabric
to.  An uncontended frame sent at ``t`` crosses three timed steps:
serialization plus propagation on the station's uplink, the switch's
forwarding decision, and serialization plus propagation on the egress
port.  Each step is written the way the scheduler computes a relative
delay (``now + (when - now)``), so the oracle is float-exact, not merely
close.
"""

from __future__ import annotations

from repro.net import GIGABIT_ETHERNET, NetworkTechnology


def lone_frame_arrival(
    t: float, wire_size: float, tech: NetworkTechnology = GIGABIT_ETHERNET
) -> float:
    """When a frame of ``wire_size`` on-wire bytes, sent at ``t`` into an
    idle star, reaches its destination."""
    tx = wire_size / tech.bandwidth
    prop = tech.propagation_delay
    t1 = t + ((t + tx + prop) - t)
    t2 = t1 + ((t1 + tech.switch_latency) - t1)
    return t2 + ((t2 + tx + prop) - t2)
