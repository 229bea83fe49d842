"""Verification CLI.

Usage::

    python -m repro.verify                       # full battery, 12 benchmarks
    python -m repro.verify --benchmarks cat car  # subset
    python -m repro.verify --allocators dp greedy --pes 32
    python -m repro.verify --strict-liveness     # escalate liveness warnings
    python -m repro.verify --no-oracle --no-mutations
    python -m repro.verify --sim --sim-iterations 1 20 1000  # engine check
    python -m repro.verify --sim --pes 16 --vaults 8    # at a fleet shard's shape
    python -m repro.verify --faults                     # failover differential
    python -m repro.verify --fleet                      # fleet differential
    python -m repro.verify --search                     # search-allocator battery
    python -m repro.verify --search --search-budgets 0 100 2000
    python -m repro.verify --tenancy                    # multi-tenant isolation
    python -m repro.verify --rewire                     # live-rewiring differential
    python -m repro.verify --all                        # every battery at once
    python -m repro.verify --list-checks         # print the check catalog
    python -m repro.verify --json                # machine-readable output

Exit status is non-zero when any validator error, oracle mismatch or
missed injected fault is found — suitable as a CI gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.cnn.workloads import WORKLOADS
from repro.core.allocation import ALLOCATORS
from repro.pim.config import PimConfig
from repro.verify.differential_fleet import fleet_differential
from repro.verify.differential_rewire import rewire_differential
from repro.verify.differential_tenancy import tenancy_differential
from repro.verify.validator import CHECK_CATALOG, ScheduleValidator
from repro.verify.runner import run_verification_sweep


def positive_int(text: str) -> int:
    """argparse type: strictly positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description=(
            "Machine-check Para-CONV schedules against the paper's "
            "invariants, differentially verify the DP allocator against a "
            "brute-force oracle, and score the validator on an injected-"
            "fault corpus."
        ),
    )
    parser.add_argument(
        "--benchmarks", nargs="+", metavar="NAME", default=None,
        choices=sorted(WORKLOADS),
        help="workloads to sweep — any registry name, including the "
             "randwired-* irregular graphs (default: all 12 paper "
             "benchmarks)",
    )
    parser.add_argument(
        "--allocators", nargs="+", metavar="NAME", default=None,
        choices=sorted(ALLOCATORS),
        help="allocators to validate (default: every registered allocator)",
    )
    parser.add_argument("--pes", type=positive_int, default=16,
                        help="PE count of the machine (default 16)")
    parser.add_argument("--iterations", type=positive_int, default=1000,
                        help="width-search iteration count N (default 1000)")
    parser.add_argument("--strict-liveness", action="store_true",
                        help="treat liveness-point cache overflows as errors")
    parser.add_argument("--unroll", type=positive_int, default=3,
                        help="steady-state iterations to unroll (default 3)")
    parser.add_argument("--oracle-limit", type=positive_int, default=16,
                        help="max competing results for exhaustive "
                             "enumeration (default 16)")
    parser.add_argument("--seed", type=int, default=0,
                        help="fault-injection seed (default 0)")
    parser.add_argument("--no-oracle", action="store_true",
                        help="skip the oracle-differential stage")
    parser.add_argument("--no-mutations", action="store_true",
                        help="skip the fault-injection stage")
    parser.add_argument("--sim", action="store_true",
                        help="differentially verify the steady-state and "
                             "columnar simulation engines against the full "
                             "unroll (every aggregate must match exactly, "
                             "and the columnar-steady engine must converge "
                             "at the same round/period/fingerprint)")
    parser.add_argument("--faults", action="store_true",
                        help="differentially verify runtime failover: a "
                             "batch that hits an injected unit failure and "
                             "fails over must match a cold compile on the "
                             "degraded machine, and a warm repeat of the "
                             "same fault must not recompile")
    parser.add_argument("--fault-unit", choices=("pe", "vault"),
                        default="pe",
                        help="unit type the --faults stage kills "
                             "(default pe)")
    parser.add_argument("--fault-unit-id", type=int, default=0,
                        help="unit id the --faults stage kills (default 0)")
    parser.add_argument("--fault-iteration", type=int, default=3,
                        help="iteration boundary at which the unit dies "
                             "(default 3)")
    parser.add_argument("--fleet", action="store_true",
                        help="differentially verify the fleet tier: every "
                             "batch a shard served must replay identically "
                             "on a standalone server, request accounting "
                             "must close across a mid-trace worker kill, "
                             "and a cold replica must serve every plan "
                             "from the shared store with zero compiles")
    parser.add_argument("--fleet-workers", type=positive_int, default=4,
                        help="shard count for the --fleet stage (default 4)")
    parser.add_argument("--fleet-requests", type=positive_int, default=400,
                        help="trace length for the --fleet stage "
                             "(default 400)")
    parser.add_argument("--sim-iterations", type=positive_int, nargs="+",
                        metavar="N", default=None,
                        help="batch sizes for the --sim stage "
                             "(default: 1 20 1000)")
    parser.add_argument("--vaults", type=positive_int, default=32,
                        help="eDRAM vault count the --sim stage simulates "
                             "(default 32; a fleet shard of 16 PEs has 8)")
    parser.add_argument("--search", action="store_true",
                        help="differentially verify the search allocators: "
                             "oracle equality on enumerable instances, the "
                             "DP lower bound and anytime monotonicity at "
                             "every ladder budget, full plan validation "
                             "on healthy, degraded and partitioned machines, "
                             "and columnar/object engine bit-identity "
                             "(allocation and SearchStats)")
    parser.add_argument("--search-budgets", type=int, nargs="+",
                        metavar="N", default=None,
                        help="budget ladder for the --search stage "
                             "(default: 0 100 500 2000)")
    parser.add_argument("--tenancy", action="store_true",
                        help="differentially verify multi-tenant isolation: "
                             "on 2-tenant, 3-tenant and degraded-partition "
                             "co-residency scenarios, every batch a tenant's "
                             "server executed must replay identically on an "
                             "isolated server over the same partition, "
                             "aggregate counters must equal the sum of "
                             "isolated runs, every tenant plan must pass the "
                             "full validator, and fused-dataflow lowerings "
                             "must conserve work and pass the sim and search "
                             "differentials unchanged")
    parser.add_argument("--tenancy-requests", type=positive_int, default=12,
                        help="requests per tenant for the --tenancy stage "
                             "(default 12)")
    parser.add_argument("--rewire", action="store_true",
                        help="differentially verify live rewiring: "
                             "post-swap serving must match a cold compile "
                             "of the new graph field by field, queued "
                             "requests must cross the cut-point with zero "
                             "loss (single server and fleet), repeat swaps "
                             "must not recompile, and the seeded ER/WS/BA "
                             "randwired battery must be deterministic and "
                             "validator-clean")
    parser.add_argument("--rewire-seeds", type=positive_int, default=3,
                        help="seeds per family for the --rewire randwired "
                             "battery (default 3)")
    parser.add_argument("--all", action="store_true", dest="all_batteries",
                        help="run every differential battery (--sim --faults "
                             "--search --fleet --tenancy) and print a "
                             "per-battery ok/FAIL summary")
    parser.add_argument("--json", action="store_true",
                        help="emit the full outcome as JSON")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the invariant-check catalog and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_checks:
        width = max(len(name) for name in CHECK_CATALOG)
        for name, description in CHECK_CATALOG.items():
            print(f"{name:<{width}}  {description}")
        return 0

    if args.all_batteries:
        args.sim = True
        args.faults = True
        args.search = True
        args.fleet = True
        args.tenancy = True
        args.rewire = True

    config = PimConfig(num_pes=args.pes, iterations=args.iterations)
    validator = ScheduleValidator(
        strict_liveness=args.strict_liveness, unroll_iterations=args.unroll
    )
    outcome = run_verification_sweep(
        config=config,
        benchmarks=args.benchmarks,
        allocators=args.allocators,
        validator=validator,
        oracle_limit=args.oracle_limit,
        with_differential=not args.no_oracle,
        with_faults=not args.no_mutations,
        fault_seed=args.seed,
        with_simulation=args.sim,
        sim_iterations=args.sim_iterations,
        sim_vaults=args.vaults,
        with_failover=args.faults,
        failover_unit=args.fault_unit,
        failover_unit_id=args.fault_unit_id,
        failover_iteration=args.fault_iteration,
        with_search=args.search,
        search_budgets=args.search_budgets,
    )
    fleet_report = None
    if args.fleet:
        fleet_report = fleet_differential(
            num_workers=args.fleet_workers,
            requests=args.fleet_requests,
            seed=args.seed,
        )
    tenancy_report = None
    if args.tenancy:
        tenancy_report = tenancy_differential(
            requests_per_tenant=args.tenancy_requests,
            validator=validator,
        )
    rewire_report = None
    if args.rewire:
        rewire_report = rewire_differential(
            config=PimConfig(num_pes=args.pes, iterations=args.iterations),
            seeds=args.rewire_seeds,
            validator=validator,
        )
    ok = (
        outcome.ok
        and (fleet_report is None or fleet_report.ok)
        and (tenancy_report is None or tenancy_report.ok)
        and (rewire_report is None or rewire_report.ok)
    )
    if args.json:
        payload = outcome.as_dict()
        payload["fleet"] = (
            fleet_report.as_dict() if fleet_report is not None else None
        )
        payload["tenancy"] = (
            tenancy_report.as_dict() if tenancy_report is not None else None
        )
        payload["rewire"] = (
            rewire_report.as_dict() if rewire_report is not None else None
        )
        payload["ok"] = ok
        print(json.dumps(payload, indent=2))
    else:
        print(outcome.summary())
        if fleet_report is not None:
            print(fleet_report.describe())
        if tenancy_report is not None:
            print(tenancy_report.describe())
        if rewire_report is not None:
            print(rewire_report.describe())
        if args.all_batteries:
            sweep = outcome.workloads
            batteries = [
                ("schedule", all(
                    r.ok for w in sweep for r in w.reports.values()
                ) and all(
                    w.differential is None or w.differential.ok for w in sweep
                )),
                ("sim", all(
                    r.ok
                    for w in sweep
                    for battery in w.simulation.values()
                    for r in battery
                )),
                ("search", all(r.ok for w in sweep for r in w.search)),
                ("faults", all(
                    (w.faults is None or w.faults.ok)
                    and (w.failover is None or w.failover.ok)
                    for w in sweep
                )),
                ("fleet", fleet_report.ok),
                ("tenancy", tenancy_report.ok),
                ("rewire", rewire_report.ok),
            ]
            for name, passed in batteries:
                print(f"battery {name:<8} {'ok' if passed else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
