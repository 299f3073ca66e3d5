"""The benchmark's workloads: a catalog spec and a replication override.

Each override scales the spec so one serial pass takes about a second on a
4-vCPU VM, long enough for the pass to be steady.  The replication count is
part of the workload: the reference manifests under sweepbench/reference/
are recorded at exactly these counts.  Why each workload was chosen is
recorded in BENCHMARK.json and sweepbench/METRICS.md.
"""

from dataclasses import dataclass

DEFAULT_SEED = 20020815  # the catalog's master seed


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str          # catalog spec run by gridtrust_lab
    replications: int  # --replications override


WORKLOADS = {w.name: w for w in (
    Workload("batch_map", "ablation_batch_interval", 250),
    Workload("trust_campaign", "chaos_robustness", 9),
    Workload("market", "market_tournament", 14),
)}
