"""The paper's core contribution: cache topology aware mapping.

* :mod:`repro.mapping.clustering` — hierarchical descent of the cache
  hierarchy tree with dot-product merging (Figure 6); the pair heap it
  seeds holds every positive edge of the paper's affinity graph
  ("BuildGraph": edge weight = common 1 bits between tags);
* :mod:`repro.mapping.balance` — the greedy load-balancing step with the
  tunable balance threshold;
* :mod:`repro.mapping.dependence` — the iteration-group dependence graph
  and its acyclification (Section 3.5.2);
* :mod:`repro.mapping.schedule` — dependence-aware local scheduling with
  the α (horizontal / shared cache) and β (vertical / L1) reuse weights
  (Figure 7, Section 3.5.3);
* :mod:`repro.mapping.distribute` — :class:`TopologyAwareMapper`, the
  end-to-end pass;
* :mod:`repro.mapping.baselines` — Base, Base+ and Local (Section 4.1);
* :mod:`repro.mapping.optimal` — reference near-optimal mappings
  (the paper's ILP stand-in, Figure 20).
"""

from repro.mapping.clustering import hierarchical_distribute
from repro.mapping.dependence import GroupDependenceGraph, build_group_dependence_graph
from repro.mapping.schedule import schedule_groups
from repro.mapping.distribute import ExecutablePlan, MappingResult, TopologyAwareMapper
from repro.mapping.baselines import base_plan, base_plus_plan, local_plan

__all__ = [
    "hierarchical_distribute",
    "GroupDependenceGraph",
    "build_group_dependence_graph",
    "schedule_groups",
    "ExecutablePlan",
    "MappingResult",
    "TopologyAwareMapper",
    "base_plan",
    "base_plus_plan",
    "local_plan",
]
