"""Multi-switch extension (the paper's stated future work).

Section 18.5: "Future work into this area should include investigating
the use of more complex network topologies, i.e., networks consisting of
many interconnected switches". This subpackage generalizes the paper's
analysis machinery from one switch (two links per channel) to arbitrary
switch graphs (k >= 2 links per channel):

* :mod:`~repro.multiswitch.graph` -- the general topology subsystem:
  :class:`FabricGraph` (cycles allowed, deterministic seeded multipath
  routing), the build-the-graph-then-run-passes builders
  (:func:`build_fat_tree`, :func:`build_tree_graph`,
  :func:`build_chain_graph`, :func:`build_star_graph`) and the
  address / admission / wiring passes. On a tree the routed path is
  unique; on redundant fabrics (fat-tree) the seeded tie-break stands
  in for the spanning-tree protocol the paper never touches.
* :mod:`~repro.multiswitch.partitioning` -- multi-hop deadline
  partitioning: the k-way generalizations of SDPS (equal split) and
  ADPS (LinkLoad-proportional split), exact-rational and
  bit-reproducible.
* :mod:`~repro.multiswitch.admission` -- per-link EDF feasibility over
  all links of the routed path, reusing
  :mod:`repro.core.feasibility` unchanged -- the per-link theory is
  identical; only the number of supposed tasks per channel grows.
* :mod:`~repro.multiswitch.simnet` -- the simulated data plane: the
  star's :class:`~repro.network.node.EndNode` at every leaf and
  per-hop EDF forwarding in :class:`FabricSwitchModel`.

This is an **extension beyond the paper**: there is no published result
to compare against. EXP-X1 reports acceptance curves for 2- and 3-switch
trees; EXP-X3 sweeps fat-tree fabrics at hundreds of end nodes to show
the machinery scales and that the ADPS advantage carries over to longer
paths.
"""

from .graph import (
    FabricGraph,
    FabricLink,
    NodeAddress,
    address_pass,
    admission_pass,
    wiring_pass,
    build_star_graph,
    build_chain_graph,
    build_tree_graph,
    build_fat_tree,
)
from .partitioning import (
    MultiHopDPS,
    MultiHopSymmetric,
    MultiHopProportional,
    split_deadline,
)
from .admission import MultiSwitchAdmission, MultiAdmissionDecision
from .simnet import (
    FabricNetwork,
    FabricSwitchModel,
    build_fabric_network,
)

__all__ = [
    "FabricNetwork",
    "FabricSwitchModel",
    "build_fabric_network",
    "FabricGraph",
    "FabricLink",
    "NodeAddress",
    "address_pass",
    "admission_pass",
    "wiring_pass",
    "build_star_graph",
    "build_chain_graph",
    "build_tree_graph",
    "build_fat_tree",
    "MultiHopDPS",
    "MultiHopSymmetric",
    "MultiHopProportional",
    "split_deadline",
    "MultiSwitchAdmission",
    "MultiAdmissionDecision",
]
