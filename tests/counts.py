"""Read a layer's counts the way every report does: from the registry.

The metrics registry is the only copy of each count a layer publishes.
These helpers index :meth:`~repro.obs.MetricsRegistry.snapshot`
directly, so a misspelt metric name or label set raises ``KeyError``
instead of reading as a silent zero (which ``value()``'s default
would let an ``== 0`` assertion pass on).
"""


def count(metrics, name: str, **labels):
    """The value of one series, e.g. ``count(m, "tcp.segments_sent",
    host="n0")``."""
    key = ",".join(f"{k}={v}" for k, v in
                   sorted((k, str(v)) for k, v in labels.items()))
    return metrics.snapshot()[name][key]


def total(metrics, name: str):
    """The sum of a counter over every label set it has."""
    return sum(metrics.snapshot()[name].values())


def tcp_count(cluster, pid: int, name: str):
    """A ``tcp.*`` count of one host that holds exactly one connection,
    so the per-host series is that connection's count."""
    stack = cluster.stack(pid)
    assert len(stack.tcp.connections()) == 1, stack.tcp.connections()
    return count(cluster.metrics, name, host=stack.host.name)
