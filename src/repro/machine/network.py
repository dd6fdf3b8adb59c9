"""Interconnect topology and communication cost models.

Each platform's network is described by a topology model that knows how its
aggregate bisection bandwidth scales with processor count — the property
the paper repeatedly uses to explain scaling differences (ES crossbar and
fat-trees scale bisection linearly with P; the X1's 2D torus scales only
with sqrt(P), which is why PARATEC's all-to-all transposes collapse on the
X1 above 128 processors, §4.2).

The topology classes can also materialize themselves as ``networkx`` graphs
(switches + endpoints) so that structural claims — bisection scaling,
diameter, single-hop crossbar — are *verified* against graph cuts in the
test suite rather than just asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .spec import MachineSpec, Topology

if TYPE_CHECKING:
    import networkx as nx

GB = 1.0e9
US = 1.0e-6


# ---------------------------------------------------------------------------
# Topology structure models
# ---------------------------------------------------------------------------
class TopologyModel:
    """Structural properties of an interconnect family."""

    #: exponent of bisection-bandwidth growth with P (1.0 = full bisection)
    bisection_exponent: float = 1.0

    def __init__(self, name: str):
        self.name = name

    def bisection_scale(self, nprocs: int, reference_procs: int) -> float:
        """Aggregate-bisection multiplier relative to ``reference_procs``.

        Table 1 quotes bisection bytes/s/flop at a reference machine size;
        this scales that aggregate figure to other processor counts.
        """
        if nprocs < 1 or reference_procs < 1:
            raise ValueError("processor counts must be positive")
        ratio = nprocs / reference_procs
        return ratio**self.bisection_exponent

    def avg_hops(self, nprocs: int) -> float:
        raise NotImplementedError

    def build_graph(self, nprocs: int) -> nx.Graph:
        """Materialize the topology for structural verification.

        Endpoint nodes are labelled ``("cpu", i)``; internal switches are
        ``("sw", ...)``.  Every edge carries ``capacity=1.0`` (one link).
        """
        raise NotImplementedError


class Crossbar(TopologyModel):
    """ES single-stage crossbar: every node one hop from every other."""

    bisection_exponent = 1.0

    def avg_hops(self, nprocs: int) -> float:
        return 1.0

    def build_graph(self, nprocs: int) -> nx.Graph:
        import networkx as nx
        g = nx.Graph()
        hub = ("sw", 0)
        for i in range(nprocs):
            # A non-blocking crossbar gives each endpoint a dedicated port;
            # model as a star whose hub never contends (per-port capacity).
            g.add_edge(("cpu", i), hub, capacity=1.0)
        return g


class FatTree(TopologyModel):
    """Full-bisection fat tree (Altix NUMAlink3, Power4 Federation)."""

    bisection_exponent = 1.0

    def __init__(self, name: str, radix: int = 4):
        super().__init__(name)
        if radix < 2:
            raise ValueError("fat-tree radix must be >= 2")
        self.radix = radix

    def avg_hops(self, nprocs: int) -> float:
        levels = max(1, math.ceil(math.log(max(nprocs, self.radix),
                                           self.radix)))
        return 2.0 * levels  # up to the common ancestor and back down

    def build_graph(self, nprocs: int) -> nx.Graph:
        import networkx as nx
        g = nx.Graph()
        # Build a binary-ish fat tree with link capacities doubling upward
        # (the "fatness" that preserves full bisection).
        leaves = [("cpu", i) for i in range(nprocs)]
        level = 0
        current = leaves
        cap = 1.0
        while len(current) > 1:
            parents = []
            for j in range(0, len(current), self.radix):
                parent = ("sw", level, j // self.radix)
                parents.append(parent)
                for child in current[j:j + self.radix]:
                    g.add_edge(child, parent, capacity=cap)
            current = parents
            cap *= self.radix  # aggregate capacity grows toward the root
            level += 1
        return g


class Omega(FatTree):
    """Power3 Colony switch: omega multistage network.

    Structurally a multistage indirect network; for the cost model it
    behaves like a (thinner) fat tree with linear bisection scaling, which
    matches the Table 1 ratio being quoted per-CPU.
    """


class Torus2D(TopologyModel):
    """X1 modified 2D torus: bisection grows only with sqrt(P) (§2.5)."""

    bisection_exponent = 0.5

    def __init__(self, name: str, hop_latency_us: float = 0.05):
        super().__init__(name)
        self.hop_latency_us = hop_latency_us

    @staticmethod
    def dims(nprocs: int) -> tuple[int, int]:
        """Near-square factorization of ``nprocs`` into torus dimensions."""
        a = int(math.sqrt(nprocs))
        while a > 1 and nprocs % a:
            a -= 1
        return a, nprocs // a

    def avg_hops(self, nprocs: int) -> float:
        a, b = self.dims(nprocs)
        # Mean wraparound distance on a ring of n is ~n/4 per dimension.
        return max(1.0, a / 4.0 + b / 4.0)

    def build_graph(self, nprocs: int) -> nx.Graph:
        import networkx as nx
        a, b = self.dims(nprocs)
        g = nx.Graph()
        for i in range(a):
            for j in range(b):
                n = ("cpu", i * b + j)
                right = ("cpu", i * b + (j + 1) % b)
                down = ("cpu", ((i + 1) % a) * b + j)
                if b > 1 and right != n:
                    g.add_edge(n, right, capacity=1.0)
                if a > 1 and down != n:
                    g.add_edge(n, down, capacity=1.0)
        if g.number_of_nodes() == 0:
            g.add_node(("cpu", 0))
        return g


def topology_model(machine: MachineSpec) -> TopologyModel:
    """Topology model instance for a platform."""
    t = machine.topology
    if t is Topology.CROSSBAR:
        return Crossbar(machine.name)
    if t is Topology.FAT_TREE:
        return FatTree(machine.name)
    if t is Topology.OMEGA:
        return Omega(machine.name)
    if t is Topology.TORUS_2D:
        return Torus2D(machine.name)
    raise ValueError(f"unhandled topology {t}")


# ---------------------------------------------------------------------------
# Communication cost model
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CommTime:
    seconds: float
    latency_seconds: float
    bandwidth_seconds: float
    bisection_seconds: float = 0.0


#: Reference machine sizes at which Table 1 bisection ratios are quoted.
_BISECTION_REFERENCE = {
    "Power3": 6080, "Power4": 864, "Altix": 256, "ES": 5120, "X1": 2048,
}


class NetworkModel:
    """Cost model for the messages recorded by the runtime transport."""

    def __init__(self, machine: MachineSpec):
        self.machine = machine
        self.topology = topology_model(machine)
        self.reference_procs = _BISECTION_REFERENCE.get(machine.name, 1024)

    # -- primitive costs ----------------------------------------------------
    def latency(self, *, onesided: bool = False, nprocs: int = 2) -> float:
        m = self.machine
        if onesided and m.onesided_latency_us is not None:
            base = m.onesided_latency_us
        else:
            base = m.mpi_latency_us
        extra = 0.0
        if isinstance(self.topology, Torus2D):
            extra = self.topology.hop_latency_us * self.topology.avg_hops(
                nprocs)
        return (base + extra) * US

    def ptp_time(self, nbytes: float, *, onesided: bool = False,
                 nprocs: int = 2) -> CommTime:
        """One point-to-point message of ``nbytes``."""
        if nbytes < 0:
            raise ValueError("negative message size")
        lat = self.latency(onesided=onesided, nprocs=nprocs)
        bw = self.machine.net_bw_gbs_per_cpu * GB
        return CommTime(lat + nbytes / bw, lat, nbytes / bw)

    def exchange_time(self, messages: float, bytes_total: float, *,
                      onesided: bool = False, nprocs: int = 2) -> CommTime:
        """Per-rank cost of a neighbourhood exchange (halo/boundary swap).

        All ranks exchange concurrently; each pays its own message latencies
        plus serialization of its own injected volume.
        """
        if messages < 0 or bytes_total < 0:
            raise ValueError("negative exchange parameters")
        lat = messages * self.latency(onesided=onesided, nprocs=nprocs)
        bw_s = bytes_total / (self.machine.net_bw_gbs_per_cpu * GB)
        return CommTime(lat + bw_s, lat, bw_s)

    # -- collectives ----------------------------------------------------------
    def total_bisection_bandwidth(self, nprocs: int) -> float:
        """Aggregate bisection bandwidth (bytes/s) at ``nprocs`` CPUs.

        Table 1 quotes bytes/s/flop at the reference machine size; the
        aggregate there is ``ratio * peak * P_ref``, rescaled to ``nprocs``
        by the topology's growth law.
        """
        m = self.machine
        ref = self.reference_procs
        aggregate_ref = (m.bisection_bytes_per_flop * m.peak_gflops * GB
                         * ref)
        return aggregate_ref * self.topology.bisection_scale(nprocs, ref)

    def alltoall_time(self, nprocs: int, bytes_per_rank: float) -> CommTime:
        """Personalized all-to-all (PARATEC's FFT transposes).

        Per-rank injection competes with the aggregate-volume bisection
        constraint: half of the total volume crosses the machine's bisection.
        """
        if nprocs < 1 or bytes_per_rank < 0:
            raise ValueError("bad alltoall parameters")
        if nprocs == 1:
            return CommTime(0.0, 0.0, 0.0)
        if isinstance(self.topology, Torus2D):
            # The early X1 software stack implemented all-to-all as
            # pairwise exchanges over the torus (see the ORNL X1
            # evaluations, refs [7, 10]): every rank pays P-1 message
            # latencies per call — the mechanism behind PARATEC's
            # scaling collapse above 128 MSPs (Table 4).
            lat = (nprocs - 1) * self.latency(nprocs=nprocs)
        else:
            lat = math.log2(nprocs) * self.latency(nprocs=nprocs)
        inject = bytes_per_rank / (self.machine.net_bw_gbs_per_cpu * GB)
        cross = (bytes_per_rank * nprocs / 2.0) / \
            self.total_bisection_bandwidth(nprocs)
        return CommTime(lat + max(inject, cross), lat, inject, cross)

    def allreduce_time(self, nprocs: int, nbytes: float) -> CommTime:
        if nprocs < 1 or nbytes < 0:
            raise ValueError("bad allreduce parameters")
        if nprocs == 1:
            return CommTime(0.0, 0.0, 0.0)
        steps = math.ceil(math.log2(nprocs))
        lat = 2 * steps * self.latency(nprocs=nprocs)
        bw_s = 2 * nbytes / (self.machine.net_bw_gbs_per_cpu * GB)
        return CommTime(lat + bw_s, lat, bw_s)

    def bcast_time(self, nprocs: int, nbytes: float) -> CommTime:
        if nprocs < 1 or nbytes < 0:
            raise ValueError("bad bcast parameters")
        if nprocs == 1:
            return CommTime(0.0, 0.0, 0.0)
        steps = math.ceil(math.log2(nprocs))
        lat = steps * self.latency(nprocs=nprocs)
        bw_s = nbytes / (self.machine.net_bw_gbs_per_cpu * GB)
        return CommTime(lat + bw_s, lat, bw_s)
