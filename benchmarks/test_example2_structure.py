"""E4 — Example 2 (Section 4.3): sixteen servers, locations x OS.

The paper's quantitative headline: the two-attribute structure
tolerates the *simultaneous* corruption of one full location and one
full operating system — seven servers — while every threshold scheme
on sixteen servers tolerates at most five.  Regenerated here:

* the structure's sixteen maximal coalitions all have size 7 and Q^3
  holds;
* a directory service keeps operating with Tokyo + all Linux machines
  silenced (7 corruptions);
* the best admissible threshold (t=5) cannot even model that coalition.
"""

from conftest import dealt, emit

from repro.adversary import (
    example2_access_formula,
    example2_assignment,
    example2_structure,
    threshold_structure,
)
from repro.adversary.quorums import access_formula_compatible
from repro.apps import DirectoryService
from repro.net.adversary import SilentNode
from repro.smr import build_service


def _service_survives_seven_corruptions():
    assignment = example2_assignment()
    dep = build_service(
        16,
        DirectoryService,
        structure=example2_structure(),
        access_formula=example2_access_formula(),
        seed=9100,
    )
    doomed = sorted(
        assignment.parties_with("location", "tokyo")
        | assignment.parties_with("os", "linux")
    )
    for server in doomed:
        dep.controller.corrupt(dep.network, server, SilentNode())
    client = dep.new_client()
    dep.network.start()
    # The resolve goes out once the bind has committed: two requests in
    # flight together may be ordered either way.
    n1 = client.submit(("bind", "payroll", "db7"))
    dep.run_until_complete(client, [n1], max_steps=1_500_000)
    n2 = client.submit(("resolve", "payroll"))
    results = dep.run_until_complete(client, [n2], max_steps=1_500_000)
    dep.network.run(max_steps=2_000_000)  # drain so every replica executed
    consistent = len({r.state_machine.snapshot() for r in dep.honest_replicas()}) == 1
    return len(doomed), results[n2].result, consistent, dep.network.delivered_count


def test_example2_structure(benchmark):
    structure = example2_structure()
    corrupted, resolve_result, consistent, delivered = benchmark.pedantic(
        _service_survives_seven_corruptions, rounds=1, iterations=1
    )
    best = threshold_structure(16, 5)
    doomed_example = next(iter(structure.maximal_sets))

    emit(
        "Example 2 (16 servers: 4 locations x 4 operating systems)",
        [
            f"Q^3 condition holds:                          {structure.satisfies_q3()}",
            f"maximal corruptible coalitions:               "
            f"{len(structure.maximal_sets)} (all size "
            f"{len(doomed_example)})",
            f"sharing formula compatible (safety+liveness): "
            f"{access_formula_compatible(structure, example2_access_formula())}",
            f"directory ran with {corrupted} servers corrupted -> "
            f"resolve = {resolve_result}",
            f"surviving replicas consistent:                {consistent}",
            f"messages delivered:                           {delivered}",
            f"best threshold for n=16 is t=5 (n>3t);        tolerates the same "
            f"coalition: {best.is_corruptible(doomed_example)}",
            f"t=6 admissible?                               "
            f"{threshold_structure(16, 6).satisfies_q3()}",
        ],
    )
    assert structure.satisfies_q3()
    assert len(structure.maximal_sets) == 16
    assert all(len(m) == 7 for m in structure.maximal_sets)
    assert corrupted == 7
    assert resolve_result[2] == "db7"
    assert consistent
    assert not best.is_corruptible(doomed_example)  # thresholds cap at 5
    assert not threshold_structure(16, 6).satisfies_q3()
