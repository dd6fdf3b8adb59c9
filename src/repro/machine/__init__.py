"""Machine models of the five evaluated platforms.

Public surface: the platform instances (:data:`POWER3`, :data:`POWER4`,
:data:`ALTIX`, :data:`ES`, :data:`X1`), the :class:`MachineSpec` family of
descriptors, and the processor / memory / network timing models.
"""

from .. import _compat

__all__ = [
    "ALTIX", "ES", "PLATFORMS", "POWER3", "POWER4", "POWER5", "X1",
    "AccessPattern", "CacheLevel", "CommTime", "ComputeTime", "Crossbar",
    "FatTree", "HardwareCounters", "MachineSpec", "MemoryModel",
    "MemoryTime", "NetworkModel", "Omega", "ProcessorModel", "ScalarUnit",
    "Topology", "TopologyModel", "Torus2D", "VectorUnit", "get_machine",
    "strip_mined_avl", "topology_model",
]

__getattr__, __dir__ = _compat.lazy_exports(__name__, {
    "counters": ("HardwareCounters",),
    "memory": ("MemoryModel", "MemoryTime"),
    "network": ("CommTime", "Crossbar", "FatTree", "NetworkModel", "Omega",
                "Torus2D", "TopologyModel", "topology_model"),
    "platforms": ("ALTIX", "ES", "PLATFORMS", "POWER3", "POWER4", "POWER5",
                  "X1", "get_machine"),
    "processor": ("ComputeTime", "ProcessorModel", "strip_mined_avl"),
    "spec": ("AccessPattern", "CacheLevel", "MachineSpec", "ScalarUnit",
             "Topology", "VectorUnit"),
})
