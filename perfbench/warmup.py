"""Fresh-interpreter set-up probe: import ``postselect`` and finish one small op.

Run by ``run.py`` with ``PYTHONPATH`` pointing at ``src``; its wall time,
spawn to exit, is the benchmark's ``setup_s``.
Usage: python3 perfbench/warmup.py WORKLOAD WORKERS
"""

import io
import json
import sys

import postselect as ps


def main(workload: str, workers: int) -> None:
    if workload == "scenario-stream":
        sc = ps.ScenarioTriple(0.3, 0.2, ps.OutcomeDistribution((0.6, 0.3, 0.1)))
        ps.check_projective_chain(sc)
        if ps.check_projective_raw(sc).feasible:
            ps.evaluate_witness(ps.construct_projective(sc))
        g = ps.construct_generalized(sc)
        from postselect.witness_io import witness_from_dict, witness_to_dict

        ps.evaluate_witness(witness_from_dict(json.loads(json.dumps(witness_to_dict(g)))))
    elif workload == "wide-witness":
        sc = ps.ScenarioTriple(0.2, 0.05, ps.OutcomeDistribution([1.0 / 16] * 16))
        ps.evaluate_witness(ps.construct_projective(sc))
    elif workload == "fuzz-campaign":
        ps.run_campaign(3, 3, 2000, 1, max_workers=workers, chunk=500)
        ps.run_campaign(6, 3, 400, 2, max_workers=workers, chunk=100)
    elif workload == "region-map":
        from postselect.regions import write_region_csv, write_region_svg

        grid = ps.emit_ternary(50)
        write_region_csv(grid, io.StringIO())
        write_region_svg(grid, io.StringIO())
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
