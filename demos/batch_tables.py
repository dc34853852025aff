"""
Seeded experiment batches and summary tables
============================================

The harness wraps the three protocol families behind one experiment
shape: generate an instance from a seed, save it as JSON, point a config
at the file (its type names the protocol), and get back a JSON-ready report whose named checks either
all pass or say what failed.  Reports aggregate into a CSV with a stable
column order, so a sweep lands in a spreadsheet without glue code.

Everything here is reachable from the shell as well:

    qamg gen --kind qam-bounded --seed 3 --s 4 --error 1/16 --out inst.json
    qamg run --instance inst.json --mode analytic --seed 0 --out report.json
    qamg table --in reports/ --out summary.csv
"""
import json
import pathlib
import tempfile

from qamg import ExperimentConfig, emit_tables, generate_instance, save_instance
from qamg.harness import run_batch

# %% One instance per generator kind, written to disk like the CLI would.
work = pathlib.Path(tempfile.mkdtemp(prefix="qamg_demo_"))
specs = [
    ("qma-p", dict(target="3/4", m=1, k=3), "enumerate", dict(reps=6)),
    ("qma-random", dict(m=1, k=2, gates=9), "analytic", dict()),
    ("qam-bounded", dict(s=3, m=1, k=3, error="1/16"), "analytic", dict()),
    ("qip-perfect", dict(k=2, m=1), "analytic", dict()),
    ("qip-no", dict(coins=2, k=3, m=1), "sample", dict(restarts=6)),
]
configs = []
for i, (kind, params, mode, extra) in enumerate(specs):
    inst = generate_instance(kind, seed=20 + i, **params)
    path = work / f"{kind}.json"
    save_instance(inst, path)
    configs.append(ExperimentConfig(
        instance=str(path), mode=mode, seed=100 + i,
        out=str(work / f"report_{kind}.json"), **extra,
    ))

# %% Run them one after another; results come back in input order.
reports = run_batch(configs)
for (kind, *_), rep in zip(specs, reports):
    status = "ok" if rep["passed"] else "FAILED"
    print("%-12s mode=%-10s %d checks %-6s (%.2fs)"
          % (kind, rep["config"]["mode"], len(rep["checks"]), status,
             rep["wall_clock_seconds"]))
    for name, passed in rep["checks"].items():
        if not passed:
            print("    failed:", name)

# %% Reports carry a flat table_row; emit_tables stacks them into CSV.
print()
print(emit_tables(reports))

# The same reports are on disk, one JSON file per experiment.
on_disk = sorted(p.name for p in work.glob("report_*.json"))
print("report files:", ", ".join(on_disk))
first = json.loads((work / on_disk[0]).read_text())
print("every report is plain JSON; keys:", ", ".join(sorted(first)))
