#!/usr/bin/env python3
"""A multi-tenant GPU cluster through the full Fig. 7 system stack.

Three training jobs with different paradigms (BERT-Large FSDP, ResNet-50
DP-AllReduce, GPT-2 pipeline) share an oversubscribed leaf-spine fabric.
Each job's framework adapter reports its EchelonFlows to a per-job Agent;
one cluster Coordinator computes bandwidth allocations that the backends
enforce. This is the "communication scheduling across DDLT jobs" that
per-job optimizers cannot do.

Run:  python examples/multi_tenant_cluster.py
"""

from repro import (
    Coordinator,
    format_table,
    get_model,
    leaf_spine,
    run_cluster,
)
from repro.core.units import gbps
from repro.scheduling import (
    CoflowMaddScheduler,
    EchelonMaddScheduler,
    FairSharingScheduler,
)
from repro.system import ControlPlaneRuntime
from repro.workloads import build_dp_allreduce, build_fsdp, build_pp_gpipe


def make_jobs():
    """Fresh jobs each run (EchelonFlows are single-use)."""
    bert = get_model("bert_large", batch_scale=2.0)
    resnet = get_model("resnet50", batch_scale=8.0)
    gpt2 = get_model("gpt2_xl")
    return [
        # Placements cross leaves, so jobs contend in the 2:1 core.
        (build_fsdp("bert-fsdp", bert, ["h0", "h4", "h8", "h12"]), 0.0),
        (
            build_dp_allreduce(
                "resnet-dp",
                resnet,
                ["h1", "h5", "h9", "h13"],
                bucket_bytes=25e6,
            ),
            0.002,
        ),
        (
            build_pp_gpipe(
                "gpt2-pp", gpt2, ["h2", "h6", "h10", "h14"], num_micro_batches=4
            ),
            0.004,
        ),
    ]


def topology():
    return leaf_spine(
        n_leaves=4,
        hosts_per_leaf=4,
        host_bandwidth=gbps(10),
        oversubscription=2.0,
    )


def main():
    rows = []
    for label, algorithm in (
        ("fair", FairSharingScheduler()),
        ("coflow", CoflowMaddScheduler()),
        # The default two-level ordering balances mean JCT and tenant
        # fairness; the most-behind-first variant gives the structurally
        # latest tenant (here bert-fsdp) absolute priority at the other
        # tenants' expense -- the operator picks the policy per cluster.
        ("echelon (default)", EchelonMaddScheduler()),
        ("echelon (protective)", EchelonMaddScheduler(ordering="tardiness")),
    ):
        runtime = ControlPlaneRuntime(coordinator=Coordinator(algorithm=algorithm))
        run = run_cluster(topology(), make_jobs(), runtime=runtime)
        jcts = run.job_completion_times()
        rows.append(
            [
                label,
                *[jcts[name] for name in ("bert-fsdp", "resnet-dp", "gpt2-pp")],
                sum(jcts.values()) / len(jcts),
            ]
        )
        if label.startswith("echelon"):
            coordinator = run.coordinator

    print(
        format_table(
            ["coordinator algorithm", "bert-fsdp", "resnet-dp", "gpt2-pp", "mean JCT"],
            rows,
            title="Per-job completion times (s) on a shared 2:1 leaf-spine",
        )
    )
    print(
        f"\nControl plane under echelon: "
        f"{len(coordinator.request_log)} EchelonFlow requests, "
        f"{coordinator.invocations} scheduling invocations."
    )


if __name__ == "__main__":
    main()
