"""Recorded result digests: a fixed configuration set, locked run by run.

The first 40 configurations were recorded while the engine still kept a
second, scalar routing path next to the array-backed one, and the two agreed
on each digest; ``digest_table.json`` keeps that shared verdict.  The
least-outstanding fault, batched and replan rows were added later, recorded
while that policy still counted in-flight queries from COMPLETION events.
The table spans every routing policy, the fault processes, skewed costs
with batching, a drift-triggered replan, the embedding cache under crashes,
a streamed cached run, a two-tenant fleet whose node drain strikes both
tenants, and a four-tenant fleet with interleaved arrivals (a fleet row's
value is every tenant's digest).

Rewrite the table after an intended behaviour change with::

    PYTHONPATH=src python tests/serving/test_digest_table.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.planner import ElasticRecPlanner
from repro.hardware.specs import cpu_only_cluster
from repro.model.configs import microbenchmark
from repro.serving.engine import MultiTenantEngine, ServingEngine, TenantSpec
from repro.serving.routing import routing_policy_names
from repro.serving.scenarios import build_scenario

TABLE_PATH = Path(__file__).with_name("digest_table.json")
FAULTS = (
    "single-crash",
    "crash-storm",
    "stragglers",
    "rolling-drain",
    "crash@20:policy=drop;drain@60+30:node=1",
)


def _configs() -> dict[str, dict]:
    """Table key -> engine options (plus ``scenario``/``seed``)."""
    configs = {}
    for scenario in ("constant", "flash-crowd"):
        for routing in routing_policy_names():
            configs[f"{scenario}/{routing}"] = dict(routing=routing, scenario=scenario)
    for routing in ("least-work", "power-of-two", "recovery-aware", "least-outstanding"):
        for faults in FAULTS:
            configs[f"faults/{routing}/{faults}"] = dict(routing=routing, faults=faults, seed=5)
    for routing in ("cost-weighted", "least-work", "least-outstanding"):
        configs[f"batched/{routing}"] = dict(
            routing=routing, cost_model="skewed", max_batch=4, batch_window_s=0.002, seed=3
        )
    configs["replan/least-outstanding"] = dict(
        routing="least-outstanding", cost_model="skewed", drift="linear@10+60:to=0.1",
        replan="sla@1.2:patience=2", seed=1,
    )
    for routing in ("least-work", "recovery-aware"):
        for cache_mb in (0.25, 16.0):
            for faults in (None, "crash-storm"):
                configs[f"cached/{routing}/{cache_mb}/{faults}"] = dict(
                    routing=routing, cost_model="skewed", cache_mb=cache_mb,
                    faults=faults, seed=2,
                )
    configs["streamed-cached"] = dict(
        tenant=True, cost_model="skewed", cache_mb=16.0, faults="single-crash", seed=2
    )
    # Two tenants on one pool: a's node drain evicts b's replicas too, while
    # a's watchdog times out, retries and sheds and b's drift fires a replan.
    configs["fleet/shared-drain"] = dict(
        fleet=dict(
            a=dict(
                routing="recovery-aware",
                faults="crash@20:policy=requeue;drain@60+30:node=1,policy=requeue",
                slo="p95@1.5:p99=8,availability=0.995,reject=0.02,patience=1,shed=0.1,"
                "deadline=20,timeout=2,retries=3,storm=0.5,recover=2",
            ),
            b=dict(
                routing="least-outstanding", cost_model="skewed",
                drift="linear@10+60:to=0.1", replan="sla@1.2:patience=2",
                slo="p95@1.5:p99=2.5,shed=0.1,retries=2",
            ),
        ),
        seed=5,
    )
    # Four tenants with their own seeds, so their arrivals interleave, on
    # four routing policies; one crash requeues d's in-flight queries.  A
    # drain runs past the other tenants' arrivals to the next control
    # event, which must leave every tenant's digest unchanged.
    configs["fleet/interleaved-drains"] = dict(
        fleet=dict(
            a=dict(routing="least-work", seed=11),
            b=dict(routing="power-of-two", seed=12),
            c=dict(routing="round-robin", seed=13),
            d=dict(
                routing="least-outstanding",
                faults="crash@60:deployment=dense,policy=requeue",
                seed=14,
            ),
        ),
        seed=5,
    )
    return configs


def run_digest(options: dict) -> str | list[str]:
    """One run's digest; a ``fleet`` run's value is every tenant's, in order."""
    options = dict(options)
    seed = options.pop("seed", 0)
    pattern = build_scenario(options.pop("scenario", "flash-crowd"), 8.0, 24.0, 120.0, seed=seed)
    plan = ElasticRecPlanner(cpu_only_cluster(num_nodes=4)).plan(
        microbenchmark(num_tables=2), target_qps=30.0
    )
    if "fleet" in options:
        fleet = options.pop("fleet")
        specs = [
            TenantSpec(name, plan, pattern, **{"seed": seed, **opts})
            for name, opts in fleet.items()
        ]
        tenants = MultiTenantEngine(specs).run().tenants
        return [tenants[name].digest() for name in fleet]
    if options.pop("tenant", False):
        spec = TenantSpec("solo", plan, pattern, seed=seed, **options)
        return MultiTenantEngine([spec]).run().tenants["solo"].digest()
    return ServingEngine(plan, seed=seed, **options).run(pattern).digest()


@pytest.fixture(scope="module")
def table() -> dict[str, str]:
    return json.loads(TABLE_PATH.read_text())


def test_table_covers_every_configuration(table):
    assert set(table) == set(_configs())


@pytest.mark.parametrize("key", list(_configs()))
def test_digest_matches_the_table(table, key):
    assert run_digest(_configs()[key]) == table[key], key


if __name__ == "__main__":
    digests = {key: run_digest(options) for key, options in _configs().items()}
    TABLE_PATH.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {TABLE_PATH}")
