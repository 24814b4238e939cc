#!/usr/bin/env python3
"""Future work made concrete: RT channels across a tree of switches.

The paper closes by calling for "more complex network topologies, i.e.,
networks consisting of many interconnected switches". This example
builds a three-switch production line, routes channels across it, and
compares the k-way generalizations of SDPS and ADPS on paths of 2-4
links.

Run:  python examples/multiswitch_tree.py
"""

from repro import ChannelSpec
from repro.multiswitch import (
    FabricGraph,
    MultiHopProportional,
    MultiHopSymmetric,
    MultiSwitchAdmission,
)


def build_line() -> FabricGraph:
    """Three cells daisy-chained: sw0 -- sw1 -- sw2."""
    fabric = FabricGraph()
    for i in range(3):
        fabric.add_switch(f"sw{i}")
    fabric.connect_switches("sw0", "sw1")
    fabric.connect_switches("sw1", "sw2")
    # the line controller sits on the middle switch
    fabric.add_node("controller", "sw1")
    # each cell has three stations
    for i in range(3):
        for j in range(3):
            fabric.add_node(f"cell{i}_dev{j}", f"sw{i}")
    return fabric


def main() -> None:
    fabric = build_line()
    spec = ChannelSpec(period=100, capacity=3, deadline=60)

    path = fabric.path_links("cell0_dev0", "cell2_dev1")
    print("path cell0_dev0 -> cell2_dev1 crosses "
          f"{len(path)} links: " + ", ".join(str(l) for l in path))

    for name, scheme in (
        ("symmetric (k-way SDPS)", MultiHopSymmetric()),
        ("proportional (k-way ADPS)", MultiHopProportional()),
    ):
        admission = MultiSwitchAdmission(fabric=build_line(), dps=scheme)
        accepted = 0
        # The controller polls every device; cross-cell devices also talk.
        requests = []
        for i in range(3):
            for j in range(3):
                requests.append(("controller", f"cell{i}_dev{j}"))
                requests.append((f"cell{i}_dev{j}", "controller"))
        # cross-cell peer traffic loads the trunks:
        for j in range(3):
            requests.append((f"cell0_dev{j}", f"cell2_dev{j}"))
            requests.append((f"cell2_dev{j}", f"cell0_dev{j}"))
        per_hop = {}
        for source, destination in requests * 3:  # offer the set three times
            decision = admission.request(source, destination, spec)
            if decision.accepted:
                accepted += 1
                hops = len(decision.links)
                per_hop[hops] = per_hop.get(hops, 0) + 1
        print(f"\n{name}: accepted {accepted} of {len(requests) * 3} requests")
        for hops in sorted(per_hop):
            print(f"  {per_hop[hops]:3d} channels over {hops}-link paths")
        trunk_load = admission.link_load(path[1])
        print(f"  LinkLoad on trunk {path[1]}: {trunk_load}")


if __name__ == "__main__":
    main()
