#!/usr/bin/env python
"""Example 2 of the paper, live: a sixteen-server directory for a
multi-national company (New York, Tokyo, Zurich, Haifa) running four
operating systems (AIX, NT, Linux, Solaris), one server per
(location, OS) pair.

The generalized adversary structure tolerates the *simultaneous*
corruption of all servers in one location **and** all servers running
one operating system — up to seven servers at once.  Any classical
threshold scheme on sixteen servers tolerates at most five.

This script corrupts the entire Tokyo site plus every Linux box
(7 servers) and shows the directory still processes authenticated
requests; it then confirms that a threshold deployment of the same
size refuses to even model such a corruption.

Run:  python examples/multisite_directory.py
"""

from repro.adversary import (
    example2_access_formula,
    example2_assignment,
    example2_structure,
    threshold_structure,
)
from repro.apps import DirectoryClient, DirectoryService
from repro.net import SilentNode
from repro.smr import build_service


def main() -> None:
    assignment = example2_assignment()
    structure = example2_structure()
    print("adversary structure:", len(structure.maximal_sets),
          "maximal corruptible coalitions, Q3 =", structure.satisfies_q3())

    deployment = build_service(
        n=16,
        state_machine_factory=DirectoryService,
        structure=structure,
        access_formula=example2_access_formula(),
        seed=7,
    )

    tokyo = assignment.parties_with("location", "tokyo")
    linux = assignment.parties_with("os", "linux")
    doomed = sorted(tokyo | linux)
    print(f"corrupting Tokyo site + all Linux hosts: servers {doomed} "
          f"({len(doomed)} of 16)")
    for server in doomed:
        deployment.controller.corrupt(deployment.network, server, SilentNode())

    directory = DirectoryClient(deployment.new_client())
    deployment.network.start()
    # The resolve is submitted only once the bind completed: atomic
    # broadcast orders concurrent requests any way it likes.
    n1 = directory.bind("hr/payroll", "db7.internal")
    results = deployment.run_until_complete(directory.client, [n1])
    n2 = directory.resolve("hr/payroll")
    results.update(deployment.run_until_complete(directory.client, [n2]))
    print("bind    ->", results[n1].result)
    print("resolve ->", results[n2].result)
    assert results[n2].result[2] == "db7.internal"

    snapshots = {r.state_machine.snapshot() for r in deployment.honest_replicas()}
    print("surviving replicas consistent:", len(snapshots) == 1)

    # The same corruption is inadmissible for ANY threshold system of 16
    # servers: t >= 7 violates n > 3t.
    thresh = threshold_structure(16, 5)
    print("best threshold structure (t=5) tolerates this coalition:",
          thresh.is_corruptible(doomed))
    assert not thresh.is_corruptible(doomed)
    print("multisite directory OK —",
          deployment.network.delivered_count, "messages delivered")


if __name__ == "__main__":
    main()
